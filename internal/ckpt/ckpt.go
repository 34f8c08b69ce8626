// Package ckpt makes long Monte-Carlo runs durable: it applies the
// paper's own medicine — periodic checkpointing — to the simulator
// itself. A sharded Monte-Carlo run is a set of fixed-size trial blocks,
// each bound to its own rng substream, so a *completed block* is a
// deterministic, resumable unit: persisting the encoded partial
// aggregate of every finished block is enough to restart an interrupted
// run and re-execute only the missing blocks, with a final aggregate
// bit-identical to an uninterrupted run for any worker count.
//
// The on-disk snapshot is a single small binary file (see State.Encode
// for the exact layout) carrying a magic number, a format version, a
// CRC32 of the payload, the configuration fingerprint, the seed and
// trial/block geometry, and the per-block payloads. Every write goes
// through internal/atomicio (write-temp-fsync-rename), so a crash while
// snapshotting can never leave a truncated file — the previous snapshot
// survives. Every load verifies the CRC, the version, and (via
// State.Check) the fingerprint and geometry, returning structured errors
// for corrupt or mismatched snapshots — never panicking, never silently
// resuming the wrong run.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"sort"

	"reskit/internal/atomicio"
)

// Kind distinguishes the sharded run shapes: the payload encodings
// differ, so resuming a run of one kind with a snapshot of another is a
// config mismatch.
type Kind uint8

// Snapshot kinds. KindMonteCarlo and KindCampaign were written by the
// worker pools that predate the engine; files of those kinds still
// decode, and are refused by every run as a kind mismatch.
const (
	KindMonteCarlo Kind = 1 // per-reservation Monte-Carlo blocks
	KindCampaign   Kind = 2 // multi-reservation campaign blocks
	KindJobs       Kind = 3 // grid of engine jobs (internal/engine), one payload per job
	KindStream     Kind = 4 // open-ended stream of engine jobs: frontier + sink state
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindMonteCarlo:
		return "montecarlo"
	case KindCampaign:
		return "campaign"
	case KindJobs:
		return "jobs"
	case KindStream:
		return "stream"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Version is the current snapshot format version. Decoders accept only
// this version; bumping it invalidates older snapshots explicitly
// instead of misreading them.
const Version = 1

// magic identifies a reskit run snapshot.
var magic = [4]byte{'R', 'K', 'C', 'P'}

// Structured decode/validation failures. Errors returned by Decode, Load
// and State.Check wrap one of these sentinels, so callers can classify
// with errors.Is and fall back to a fresh run.
var (
	// ErrNotSnapshot marks a file that is not a reskit snapshot at all
	// (wrong magic or shorter than the fixed header).
	ErrNotSnapshot = errors.New("ckpt: not a reskit run snapshot")
	// ErrVersion marks a snapshot from an incompatible format version.
	ErrVersion = errors.New("ckpt: unsupported snapshot version")
	// ErrCorrupt marks a snapshot that fails the CRC or whose structure
	// is internally inconsistent (truncated payloads, out-of-range block
	// indices, duplicate blocks).
	ErrCorrupt = errors.New("ckpt: snapshot corrupt")
	// ErrMismatch marks a well-formed snapshot of a *different* run:
	// fingerprint, seed, trial count, block size or kind disagree with
	// the run being resumed.
	ErrMismatch = errors.New("ckpt: snapshot does not match this run")
)

// State is the durable image of a sharded Monte-Carlo run: which blocks
// have completed, and the encoded partial aggregate of each. It is not
// safe for concurrent use; Writer provides the synchronized, throttled
// layer the simulation workers talk to.
type State struct {
	Kind        Kind
	Fingerprint uint64 // caller-computed hash of the run configuration
	Seed        uint64
	Trials      int64
	BlockSize   int64
	NumBlocks   int64
	Blocks      map[int][]byte // completed block index -> encoded partial aggregate
}

// New returns an empty run state with the geometry derived from trials
// and blockSize.
func New(kind Kind, fingerprint, seed uint64, trials, blockSize int64) *State {
	return &State{
		Kind:        kind,
		Fingerprint: fingerprint,
		Seed:        seed,
		Trials:      trials,
		BlockSize:   blockSize,
		NumBlocks:   (trials + blockSize - 1) / blockSize,
		Blocks:      make(map[int][]byte),
	}
}

// Done returns the number of completed blocks recorded in the state.
func (s *State) Done() int { return len(s.Blocks) }

// NewStream returns an empty frontier state for an open-ended streaming
// run. Stream snapshots reuse the fixed-slice wire format with the
// geometry re-read as a frontier: Trials and NumBlocks both hold the
// highest contiguous committed job index (jobs [0, frontier) are folded
// into the sink), BlockSize is 1, and the single payload at block 0 is
// the opaque sink state at that frontier. Because sink commits are
// strictly ordered, that state is a pure function of the committed
// prefix — restoring it and replaying the source past the frontier is
// bit-identical to never having stopped.
func NewStream(fingerprint, seed uint64) *State {
	return &State{
		Kind:        KindStream,
		Fingerprint: fingerprint,
		Seed:        seed,
		BlockSize:   1,
		Blocks:      make(map[int][]byte),
	}
}

// SetStream records the sink state at a new frontier. frontier must be
// positive: a zero frontier has nothing worth persisting (and would not
// survive the geometry validation on decode).
func (s *State) SetStream(frontier int64, state []byte) {
	s.Trials = frontier
	s.NumBlocks = frontier
	s.BlockSize = 1
	s.Blocks[0] = state
}

// Frontier returns the committed-job frontier of a stream snapshot, or
// 0 for any other kind.
func (s *State) Frontier() int64 {
	if s.Kind != KindStream {
		return 0
	}
	return s.Trials
}

// StreamState returns the sink state blob of a stream snapshot (nil for
// other kinds or an empty state).
func (s *State) StreamState() []byte { return s.Blocks[0] }

// CheckStream validates that a stream snapshot belongs to the run
// described by the arguments. Unlike Check it does not compare the
// geometry — the frontier is progress, not configuration — and it
// rejects a stream snapshot with no recorded sink state.
func (s *State) CheckStream(fingerprint, seed uint64) error {
	switch {
	case s.Kind != KindStream:
		return fmt.Errorf("%w: snapshot kind %v, run kind %v", ErrMismatch, s.Kind, KindStream)
	case s.Fingerprint != fingerprint:
		return fmt.Errorf("%w: config fingerprint %016x, run fingerprint %016x (%s)", ErrMismatch, s.Fingerprint, fingerprint, fingerprintHint)
	case s.Seed != seed:
		return fmt.Errorf("%w: snapshot seed %d, run seed %d", ErrMismatch, s.Seed, seed)
	case s.Trials <= 0 || len(s.Blocks[0]) == 0:
		return fmt.Errorf("%w: stream snapshot has no sink state", ErrCorrupt)
	}
	return nil
}

// Check validates that the snapshot belongs to the run described by the
// arguments. Any disagreement returns an error wrapping ErrMismatch that
// names the offending field.
func (s *State) Check(kind Kind, fingerprint, seed uint64, trials, blockSize int64) error {
	switch {
	case s.Kind != kind:
		return fmt.Errorf("%w: snapshot kind %v, run kind %v", ErrMismatch, s.Kind, kind)
	case s.Fingerprint != fingerprint:
		return fmt.Errorf("%w: config fingerprint %016x, run fingerprint %016x (%s)", ErrMismatch, s.Fingerprint, fingerprint, fingerprintHint)
	case s.Seed != seed:
		return fmt.Errorf("%w: snapshot seed %d, run seed %d", ErrMismatch, s.Seed, seed)
	case s.Trials != trials:
		return fmt.Errorf("%w: snapshot trials %d, run trials %d", ErrMismatch, s.Trials, trials)
	case s.BlockSize != blockSize:
		return fmt.Errorf("%w: snapshot block size %d, run block size %d", ErrMismatch, s.BlockSize, blockSize)
	}
	return nil
}

// fingerprintHint names what a fingerprint mismatch usually means.
const fingerprintHint = "different flags, or written by another sampler version"

// headerSize is the fixed prefix: magic, version, crc, kind, and the
// five geometry fields.
const headerSize = 4 + 4 + 4 + 1 + 5*8

// maxPayload bounds one block's encoded partial aggregate. Real payloads
// are a few hundred bytes; the bound keeps a corrupt length field from
// driving a huge allocation before the CRC check would catch it.
const maxPayload = 1 << 20

// Encode serializes the state. Layout (all integers little-endian):
//
//	[0:4)   magic "RKCP"
//	[4:8)   format version (uint32)
//	[8:12)  CRC32 (IEEE) of every byte after this field
//	[12]    kind (uint8)
//	[13:21) config fingerprint (uint64)
//	[21:29) seed (uint64)
//	[29:37) trials (int64)
//	[37:45) block size (int64)
//	[45:53) number of blocks (int64)
//	[53:57) number of completed blocks (uint32)
//	then, for each completed block in ascending index order:
//	  block index (uint32), payload length (uint32), payload bytes
//
// Ascending block order makes the encoding canonical: two states with
// the same completed blocks produce identical bytes.
func (s *State) Encode() []byte {
	idx := make([]int, 0, len(s.Blocks))
	size := headerSize + 4
	for b, p := range s.Blocks {
		idx = append(idx, b)
		size += 8 + len(p)
	}
	sort.Ints(idx)

	out := make([]byte, 12, size)
	copy(out[0:4], magic[:])
	binary.LittleEndian.PutUint32(out[4:8], Version)
	// out[8:12] is the CRC, filled last.
	out = append(out, byte(s.Kind))
	out = binary.LittleEndian.AppendUint64(out, s.Fingerprint)
	out = binary.LittleEndian.AppendUint64(out, s.Seed)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.Trials))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.BlockSize))
	out = binary.LittleEndian.AppendUint64(out, uint64(s.NumBlocks))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idx)))
	for _, b := range idx {
		out = binary.LittleEndian.AppendUint32(out, uint32(b))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Blocks[b])))
		out = append(out, s.Blocks[b]...)
	}
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[12:]))
	return out
}

// Decode parses and validates a snapshot image. Corrupt, truncated or
// version-skewed inputs return structured errors (wrapping ErrNotSnapshot,
// ErrVersion or ErrCorrupt) — never a panic, and a CRC mismatch is never
// accepted.
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrNotSnapshot, len(data), headerSize+4)
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotSnapshot, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("%w: version %d, this build reads version %d", ErrVersion, v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:12])
	if got := crc32.ChecksumIEEE(data[12:]); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC32 %08x, header says %08x", ErrCorrupt, got, wantCRC)
	}

	s := &State{
		Kind:        Kind(data[12]),
		Fingerprint: binary.LittleEndian.Uint64(data[13:21]),
		Seed:        binary.LittleEndian.Uint64(data[21:29]),
		Trials:      int64(binary.LittleEndian.Uint64(data[29:37])),
		BlockSize:   int64(binary.LittleEndian.Uint64(data[37:45])),
		NumBlocks:   int64(binary.LittleEndian.Uint64(data[45:53])),
	}
	if s.Kind != KindMonteCarlo && s.Kind != KindCampaign && s.Kind != KindJobs && s.Kind != KindStream {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(s.Kind))
	}
	if s.Trials <= 0 || s.BlockSize <= 0 || s.NumBlocks <= 0 {
		return nil, fmt.Errorf("%w: non-positive geometry (trials=%d, block=%d, blocks=%d)",
			ErrCorrupt, s.Trials, s.BlockSize, s.NumBlocks)
	}
	if want := (s.Trials + s.BlockSize - 1) / s.BlockSize; s.NumBlocks != want {
		return nil, fmt.Errorf("%w: %d blocks inconsistent with %d trials of block size %d (want %d)",
			ErrCorrupt, s.NumBlocks, s.Trials, s.BlockSize, want)
	}

	nDone := binary.LittleEndian.Uint32(data[53:57])
	if int64(nDone) > s.NumBlocks {
		return nil, fmt.Errorf("%w: %d completed blocks of %d total", ErrCorrupt, nDone, s.NumBlocks)
	}
	s.Blocks = make(map[int][]byte, nDone)
	off := headerSize + 4
	prev := -1
	for i := uint32(0); i < nDone; i++ {
		if len(data)-off < 8 {
			return nil, fmt.Errorf("%w: truncated at block record %d", ErrCorrupt, i)
		}
		b := int(binary.LittleEndian.Uint32(data[off : off+4]))
		plen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		off += 8
		if int64(b) >= s.NumBlocks {
			return nil, fmt.Errorf("%w: block index %d out of %d", ErrCorrupt, b, s.NumBlocks)
		}
		if b <= prev {
			return nil, fmt.Errorf("%w: block indices not strictly ascending at %d", ErrCorrupt, b)
		}
		prev = b
		if plen > maxPayload || plen > len(data)-off {
			return nil, fmt.Errorf("%w: block %d payload of %d bytes overruns the file", ErrCorrupt, b, plen)
		}
		payload := make([]byte, plen)
		copy(payload, data[off:off+plen])
		s.Blocks[b] = payload
		off += plen
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last block", ErrCorrupt, len(data)-off)
	}
	return s, nil
}

// Load reads and decodes the snapshot at path.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteFile atomically persists the state to path via
// write-temp-fsync-rename: a crash mid-snapshot leaves the previous
// snapshot intact, never a truncated file.
func (s *State) WriteFile(path string) error {
	return atomicio.WriteFile(path, s.Encode(), 0o644)
}

// Fingerprint hashes an ordered list of configuration facets (flag
// values, law specs, strategy names ...) into the 64-bit config
// fingerprint stored in snapshots. FNV-1a with a separator byte between
// parts, so ("ab","c") and ("a","bc") differ.
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
