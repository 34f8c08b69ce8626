package ckpt

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"reskit/internal/obs"
)

// PrevGeneration returns the rotated previous-generation path of a
// snapshot: before each new snapshot lands, the last good one is moved
// to path+".1", so a failed or corrupted head write never costs every
// generation at once. Resume logic (internal/engine) falls back to this
// path when the head snapshot is unusable.
func PrevGeneration(path string) string { return path + ".1" }

// Writer is the durable half of a job ledger (engine.Ledger): the
// ledger calls Commit as jobs complete, and the writer folds each
// payload into the run State, snapshotting the whole state to disk at most once per
// interval — the Young/Daly trade-off in miniature: frequent snapshots
// bound the re-computation lost to a crash, sparse ones bound the I/O
// overhead. Flush forces a final snapshot (interruption, normal exit).
//
// Every snapshot write rotates the previous good snapshot to
// PrevGeneration(path) first and is verified by reading the new head
// back (decode + identity check); an unverifiable head is removed so a
// resume finds the rotated generation instead of garbage. Disk errors
// never interrupt the simulation: each one bumps the "ckpt.write_errors"
// counter, the first is logged immediately via LogTo and retained for
// Err, and the state stays dirty so the next Commit or Flush retries
// the write.
//
// All methods are safe for concurrent use.
type Writer struct {
	path     string
	interval time.Duration
	now      func() time.Time // injectable clock for tests

	mu      sync.Mutex
	state   *State
	last    time.Time
	dirty   bool
	err     error     // first disk error over the writer's lifetime
	lastErr error     // error of the most recent write attempt (nil: it stuck)
	log     io.Writer // immediate first-error surfacing (nil: discard)
	logged  bool

	// Optional instruments, bound by Instrument: snapshot writes, blocks
	// committed, write failures, and the wall-clock second of the last
	// durable snapshot.
	snapshots *obs.Counter
	blocks    *obs.Counter
	writeErrs *obs.Counter
	lastUnix  *obs.Gauge
}

// NewWriter returns a writer persisting state to path at most once per
// interval (default 10s when interval <= 0). The state may come from New
// (fresh run) or Load (resume).
func NewWriter(path string, interval time.Duration, state *State) *Writer {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &Writer{path: path, interval: interval, now: time.Now, state: state}
}

// Instrument binds the writer's instruments on reg: the "ckpt.snapshots",
// "ckpt.blocks_committed" and "ckpt.write_errors" counters and the
// "ckpt.last_snapshot_unix" gauge. A nil registry leaves them disabled
// at zero cost.
func (w *Writer) Instrument(reg *obs.Registry) {
	w.snapshots = reg.Counter("ckpt.snapshots")
	w.blocks = reg.Counter("ckpt.blocks_committed")
	w.writeErrs = reg.Counter("ckpt.write_errors")
	w.lastUnix = reg.Gauge("ckpt.last_snapshot_unix")
}

// LogTo directs the writer's immediate error surfacing to out (the
// engine Log): the first failed snapshot write is reported there the
// moment it happens, instead of sitting silently in Err until the run
// ends. A nil writer discards the report.
func (w *Writer) LogTo(out io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log = out
}

// Restore returns the encoded payload of block b from the loaded
// snapshot, or nil when the block must be (re)computed.
func (w *Writer) Restore(b int) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Blocks[b]
}

// Commit records the encoded payload of a freshly completed block and
// snapshots the state to disk when the interval has elapsed. It is safe
// for concurrent use.
func (w *Writer) Commit(b int, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.state.Blocks[b] = payload
	w.dirty = true
	w.blocks.Inc()
	if w.now().Sub(w.last) >= w.interval {
		w.writeLocked()
	}
}

// CommitStream records the sink state of a streaming run at a new
// frontier (see ckpt.NewStream for the geometry) and snapshots when the
// interval has elapsed. frontier must be positive.
func (w *Writer) CommitStream(frontier int64, state []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.state.SetStream(frontier, state)
	w.dirty = true
	w.blocks.Inc()
	if w.now().Sub(w.last) >= w.interval {
		w.writeLocked()
	}
}

// Due reports whether the throttle interval has elapsed since the last
// write attempt. Streaming engines use it to skip materializing the sink
// state for a commit that would not be written anyway — unlike block
// payloads, the sink state must be re-encoded at every frontier it is
// persisted at.
func (w *Writer) Due() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now().Sub(w.last) >= w.interval
}

// Flush forces a snapshot of the current state (if anything changed
// since the last successful write) and reports whether the on-disk head
// snapshot now matches the in-memory state: nil means the final write
// stuck and verified, even if earlier writes failed mid-run (those stay
// visible through Err and the ckpt.write_errors counter). A non-nil
// error means the state on disk is stale — the run is not (fully)
// resumable.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dirty {
		w.writeLocked()
	}
	if w.dirty {
		return w.lastErr
	}
	return nil
}

// Err returns the first disk error encountered over the writer's
// lifetime, without forcing a write. It keeps reporting that error even
// after a later retry succeeded; use Flush to learn whether the current
// state is durable.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// State returns the writer's run state. Callers must not mutate it while
// workers are committing.
func (w *Writer) State() *State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// writeLocked attempts a verified snapshot write; w.mu must be held.
// On failure the state stays dirty (the next Commit or Flush retries),
// the error is counted and retained, and the first one is logged
// immediately.
func (w *Writer) writeLocked() {
	w.last = w.now()
	err := w.writeVerified()
	w.lastErr = err
	if err != nil {
		w.writeErrs.Inc()
		if w.err == nil {
			w.err = err
		}
		if !w.logged && w.log != nil {
			fmt.Fprintf(w.log, "checkpoint: snapshot write failed (state kept in memory, will retry): %v\n", err)
			w.logged = true
		}
		return
	}
	w.dirty = false
	w.snapshots.Inc()
	w.lastUnix.Set(float64(w.now().Unix()))
}

// writeVerified rotates the last good snapshot to the previous
// generation, writes the new head, and reads the head back to verify it
// decodes to the state just written. An unverifiable head is removed so
// resume falls back to the rotated generation rather than trusting a
// file this writer could not read.
func (w *Writer) writeVerified() error {
	if _, serr := os.Stat(w.path); serr == nil {
		if rerr := os.Rename(w.path, PrevGeneration(w.path)); rerr != nil {
			return fmt.Errorf("rotating last good snapshot: %w", rerr)
		}
	}
	if err := w.state.WriteFile(w.path); err != nil {
		return err
	}
	loaded, err := Load(w.path)
	if err == nil {
		err = loaded.Check(w.state.Kind, w.state.Fingerprint, w.state.Seed, w.state.Trials, w.state.BlockSize)
	}
	if err == nil && loaded.Done() != w.state.Done() {
		err = fmt.Errorf("%w: readback holds %d blocks, wrote %d", ErrCorrupt, loaded.Done(), w.state.Done())
	}
	if err != nil {
		os.Remove(w.path) // fall back to the rotated generation on resume
		return fmt.Errorf("verify after write: %w", err)
	}
	return nil
}

// RemoveGenerations deletes the snapshot at path and its rotated
// previous generation, returning the first unexpected error (a missing
// file is not an error). Engines call it when a run completes and the
// snapshots have served their purpose.
func RemoveGenerations(path string) error {
	var first error
	for _, p := range []string{path, PrevGeneration(path)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}
