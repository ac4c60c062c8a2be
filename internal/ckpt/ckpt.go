// Package ckpt persists solver checkpoints to disk and coordinates their
// use across a multi-process world — the durable half of the fault
// tolerance story. internal/solver produces in-memory snapshots at
// collective boundaries; this package makes them survive a SIGKILL.
//
// Three properties matter:
//
//   - Atomicity. A crash mid-save must never leave a file that a later
//     Load mistakes for a snapshot. Save writes to a temp file in the
//     same directory, fsyncs, and renames into place — the checkpoint
//     either exists completely or not at all. A CRC over the payload
//     rejects torn or corrupted files as a second line of defense.
//
//   - Identity. Load restores the exact bits Save was given; the binary
//     fixed-width encoding round-trips float64 payloads bit for bit, so
//     the solver's bit-identical-restore contract extends through disk.
//
//   - Agreement. On a multi-process world each process saves its own row
//     span, and a crash can leave processes holding different "latest"
//     iterations (one sealed iteration 40 just before dying, the others
//     only 30). Agree reduces each process's newest local iteration with
//     a min across the world, so everyone restores the newest snapshot
//     that ALL processes hold.
//
// File names encode the row span and iteration (cg-000000-000160-i00000040.ckpt),
// so LatestCG can pick the newest matching snapshot with a directory scan
// and stale spans from a re-partitioned run are ignored.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/solver"
)

const (
	magic   = "RPCK"
	version = 1
	kindCG  = 1
)

// CGPath returns the file name a CG snapshot of rows [lo,hi) at the given
// iteration is saved under, inside dir.
func CGPath(dir string, lo, hi, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("cg-%06d-%06d-i%08d.ckpt", lo, hi, iter))
}

type enc struct{ buf bytes.Buffer }

func (e *enc) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

func (e *enc) i64(v int) { e.u64(uint64(int64(v))) }

func (e *enc) f64s(v []float64) {
	e.i64(len(v))
	for _, x := range v {
		e.u64(math.Float64bits(x))
	}
}

type dec struct {
	b   []byte
	err error
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("ckpt: truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) i64() int { return int(int64(d.u64())) }

// f64s decodes a length-prefixed float64 slice into dst[:0], growing it as
// needed; max bounds the length so a corrupt header cannot force a huge
// allocation before the CRC would have caught it.
func (d *dec) f64s(dst []float64, max int) []float64 {
	n := d.i64()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > max {
		d.err = fmt.Errorf("ckpt: implausible vector length %d (max %d)", n, max)
		return nil
	}
	dst = append(dst[:0], make([]float64, n)...)
	for i := range dst {
		dst[i] = math.Float64frombits(d.u64())
	}
	return dst
}

// writeAtomic writes payload (with a trailing CRC) to path via a temp file
// and rename, fsyncing the file and its directory, so the checkpoint is
// durable and appears atomically.
func writeAtomic(path string, payload []byte) error {
	crc := crc32.ChecksumIEEE(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(payload); err == nil {
		_, err = tmp.Write(tail[:])
		if err == nil {
			err = tmp.Sync()
		}
	} else {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	// Make the rename itself durable.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// readVerified reads path and returns the payload with its CRC verified
// and stripped.
func readVerified(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(raw) < 4+len(magic) {
		return nil, fmt.Errorf("ckpt: %s: file too short", path)
	}
	payload, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("ckpt: %s: checksum mismatch (torn or corrupted)", path)
	}
	return payload, nil
}

func (d *dec) header(wantKind int) {
	if d.err != nil {
		return
	}
	if len(d.b) < len(magic) || string(d.b[:len(magic)]) != magic {
		d.err = fmt.Errorf("ckpt: bad magic")
		return
	}
	d.b = d.b[len(magic):]
	if v := d.i64(); d.err == nil && v != version {
		d.err = fmt.Errorf("ckpt: unsupported version %d", v)
	}
	if k := d.i64(); d.err == nil && k != wantKind {
		d.err = fmt.Errorf("ckpt: wrong snapshot kind %d, want %d", k, wantKind)
	}
}

// SaveCG atomically persists a sealed CG snapshot into dir and returns the
// file path.
func SaveCG(dir string, c *solver.CGCheckpoint) (string, error) {
	if !c.Valid() {
		return "", fmt.Errorf("ckpt: refusing to save an invalid CG checkpoint")
	}
	var e enc
	e.buf.WriteString(magic)
	e.i64(version)
	e.i64(kindCG)
	e.i64(c.Lo)
	e.i64(c.Hi)
	e.i64(c.Iter)
	e.i64(c.MVMs)
	e.u64(math.Float64bits(c.RR))
	e.f64s(c.History)
	e.f64s(c.X)
	e.f64s(c.R)
	e.f64s(c.P)
	path := CGPath(dir, c.Lo, c.Hi, c.Iter)
	if err := writeAtomic(path, e.buf.Bytes()); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCG fills c (sized by solver.NewCGCheckpoint for the same cluster
// shape) from a file written by SaveCG and seals it. The file's row span
// must match c's.
func LoadCG(path string, c *solver.CGCheckpoint) error {
	payload, err := readVerified(path)
	if err != nil {
		return err
	}
	d := dec{b: payload}
	d.header(kindCG)
	lo, hi := d.i64(), d.i64()
	if d.err == nil && (lo != c.Lo || hi != c.Hi) {
		return fmt.Errorf("ckpt: %s covers rows [%d,%d), checkpoint buffer holds [%d,%d)", path, lo, hi, c.Lo, c.Hi)
	}
	n := hi - lo
	c.Iter = d.i64()
	c.MVMs = d.i64()
	c.RR = math.Float64frombits(d.u64())
	c.History = d.f64s(c.History, c.Iter)
	c.X = d.f64s(c.X, n)
	c.R = d.f64s(c.R, n)
	c.P = d.f64s(c.P, n)
	if d.err != nil {
		return fmt.Errorf("ckpt: %s: %w", path, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("ckpt: %s: %d trailing bytes", path, len(d.b))
	}
	if len(c.X) != n || len(c.R) != n || len(c.P) != n {
		return fmt.Errorf("ckpt: %s: vector lengths disagree with row span", path)
	}
	c.Seal()
	return nil
}

// LatestCG returns the newest CG snapshot iteration for rows [lo,hi) in
// dir and its path; iter is -1 when none exists (including when dir itself
// is missing — a fresh start).
func LatestCG(dir string, lo, hi int) (iter int, path string, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return -1, "", nil
	}
	if err != nil {
		return -1, "", fmt.Errorf("ckpt: %w", err)
	}
	prefix := fmt.Sprintf("cg-%06d-%06d-i", lo, hi)
	iter = -1
	for _, ent := range entries {
		name := ent.Name()
		var it int
		if _, serr := fmt.Sscanf(name, prefix+"%08d.ckpt", &it); serr != nil || !ent.Type().IsRegular() {
			continue
		}
		// Sscanf ignores trailing input and accepts a short digit run, so
		// a near miss (….ckpt.bak, …-i40.ckpt) parses too: only the exact
		// name SaveCG writes counts.
		if name != filepath.Base(CGPath(dir, lo, hi, it)) {
			continue
		}
		if it > iter {
			iter, path = it, filepath.Join(dir, name)
		}
	}
	return iter, path, nil
}

// Agree reduces each process's newest locally held iteration (-1 for
// none) to the newest iteration ALL processes hold, using the world's
// min-reduction — the restart rendezvous after a crash, where the dying
// process may have sealed one snapshot fewer than its peers. Every
// process must call Agree; all receive the same answer.
func Agree(cl *core.Cluster, latest int) (int, error) {
	agreed := latest
	first := cl.LocalRanks()[0]
	err := cl.Run(func(w *core.Worker) error {
		v, err := w.Comm.AllreduceScalar(core.OpMin, float64(latest))
		if err != nil {
			return err
		}
		// Every local rank computes the same reduction; one writes.
		if w.Comm.Rank() == first {
			agreed = int(v)
		}
		return nil
	})
	if err != nil {
		return -1, err
	}
	return agreed, nil
}
