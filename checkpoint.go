package reskit

import (
	"os"
	"strconv"

	"reskit/internal/atomicio"
	"reskit/internal/ckpt"
	"reskit/internal/dist"
)

// Durable-run facade. Every Monte-Carlo mode runs on the job engine
// (RunEngine), which periodically snapshots completed jobs to disk; an
// interrupted run resumes by re-running only the missing jobs, with the
// final aggregate bit-identical to an uninterrupted run for any worker
// count, because every job owns an independent rng substream.

// RunState is the durable image of an engine run: geometry, seed,
// config fingerprint, and the encoded payload of every completed job.
type RunState = ckpt.State

// RunStateKind distinguishes snapshot layouts.
type RunStateKind = ckpt.Kind

// RunStateJobs is the job-granular snapshot written by the run engine
// (RunEngine); one block per job, block size 1.
const RunStateJobs = ckpt.KindJobs

// Structured snapshot errors re-exported from internal/ckpt.
var (
	ErrSnapshotCorrupt  = ckpt.ErrCorrupt
	ErrSnapshotVersion  = ckpt.ErrVersion
	ErrSnapshotMismatch = ckpt.ErrMismatch
	ErrNotSnapshot      = ckpt.ErrNotSnapshot
)

// LoadRunState reads, CRC-checks and decodes a snapshot file. Corrupt,
// truncated or version-skewed files return structured errors; validate
// the result against the current run with RunState.Check before
// resuming.
func LoadRunState(path string) (*RunState, error) { return ckpt.Load(path) }

// ConfigFingerprint hashes an ordered list of configuration facets into
// the fingerprint stored in snapshots, so resuming under a different
// configuration is detected instead of silently producing wrong numbers.
// The sampler version (dist.SamplerVersion) is hashed ahead of the parts:
// blocks drawn by another sampler are another configuration, so a
// snapshot or distributed worker from before a sampler change is refused.
func ConfigFingerprint(parts ...string) uint64 {
	return ckpt.Fingerprint(append([]string{samplerPart}, parts...)...)
}

// samplerPart is the fingerprint facet naming the sampler version.
var samplerPart = "sampler=v" + strconv.Itoa(dist.SamplerVersion)

// WriteFileAtomic replaces the file at path via write-temp-fsync-rename:
// a crash mid-write can never leave a truncated artifact. Every file the
// toolchain emits (benchmark snapshots, metrics, traces, checkpoints)
// goes through this path.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return atomicio.WriteFile(path, data, perm)
}

// CreateFileAtomic starts a streamed atomic write: bytes go to a
// temporary sibling and the destination appears only when Close
// succeeds.
func CreateFileAtomic(path string) (*atomicio.File, error) { return atomicio.Create(path) }
