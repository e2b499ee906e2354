// Package spill manages the on-disk tier of the shard cache: when the
// byte-budgeted LRU (internal/core, lifecycle.go) evicts a sealed shard and
// a spill directory is configured, the shard's tables are serialized into a
// compact section-encoded file here instead of being thrown away, and a
// later re-pin reads them back — skipping the full re-linearize + re-hash
// rebuild. DBCSR-style blocked residency (PAPERS.md): the RAM budget bounds
// the hot set, the disk budget bounds the warm set, and everything beyond
// both still falls back to rebuild.
//
// The package owns three things:
//
//   - The file envelope: a section stream (internal/tnsbin) carrying magic,
//     version and the writing shard's generation stamp ahead of an opaque
//     body, sealed by one CRC-32 trailer over the whole file. The body's
//     layout belongs to the caller (core encodes its tile tables there).
//   - The directory manager (Dir): a byte budget over every file on disk,
//     oldest-first room-making, a startup scavenge that deletes anonymous
//     and corrupt leftovers and indexes valid keyed files as orphans for
//     adoption by a restarted process (the server's warm-restart path).
//   - The failure taxonomy: every way a read-back can go wrong — missing
//     file, truncated file, checksum mismatch, stale generation, malformed
//     header — is a distinct typed error, so the caller can fall back to
//     rebuild and count the cause instead of guessing.
//
// All filesystem access goes through the FS seam, so tests inject write
// failures (ENOSPC, read-only directory) and corruption deterministically.
package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"fastcc/internal/tnsbin"
)

// Read-back and write failures, each the typed cause the shard cache
// records (metrics.CacheCounters.SpillFallbacks) before rebuilding.
var (
	// ErrMissing reports a spill file that no longer exists (deleted by the
	// disk budget's room-making or by an external cleaner).
	ErrMissing = errors.New("spill: file missing")
	// ErrTruncated reports a file shorter (or longer) than the handle's
	// recorded size — a partial write or an external truncation, detected
	// by size before any checksum work.
	ErrTruncated = errors.New("spill: file truncated")
	// ErrChecksum reports a CRC-32 trailer mismatch: the bytes on disk are
	// not the bytes written.
	ErrChecksum = errors.New("spill: checksum mismatch")
	// ErrStale reports a generation-stamp mismatch: the file was rewritten
	// by another shard incarnation between spill and re-pin.
	ErrStale = errors.New("spill: stale generation stamp")
	// ErrBadHeader reports a malformed envelope (wrong magic or version) or
	// a body whose shape contradicts the shard being reloaded.
	ErrBadHeader = errors.New("spill: bad header")
	// ErrOverBudget reports a write the disk budget could not make room
	// for even after evicting every unpinned file.
	ErrOverBudget = errors.New("spill: over disk budget")
)

// FS is the filesystem seam every Dir operation goes through. The
// production implementation is OS (plain os calls); fault-injection tests
// substitute failing or corrupting implementations.
type FS interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte) error
	Remove(name string) error
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string) error
}

// OS is the production FS: plain os package calls.
type OS struct{}

func (OS) ReadFile(name string) ([]byte, error)  { return os.ReadFile(name) }
func (OS) WriteFile(name string, b []byte) error { return os.WriteFile(name, b, 0o644) }
func (OS) Remove(name string) error              { return os.Remove(name) }
func (OS) MkdirAll(dir string) error             { return os.MkdirAll(dir, 0o755) }
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Envelope constants. The body follows the generation stamp; one CRC-32
// trailer (tnsbin section trailer) covers envelope and body together.
var fsplMagic = uint32('F') | uint32('S')<<8 | uint32('P')<<16 | uint32('L')<<24

// fsplVersion is the envelope version. Version 2 drops the body's
// input-representation byte; a file of any other version fails
// ParseHeader, so the startup scavenge deletes it instead of indexing it
// as an orphan.
const fsplVersion = 2

// Ext is the spill-file extension; Dir ignores (and never deletes)
// anything else living in its directory.
const Ext = ".fspl"

// EnvelopeBytes is the fixed per-file overhead around the body: the
// envelope fields (magic, version, generation stamp) plus the CRC-32
// trailer. Tooling subtracts it to report body sizes.
const EnvelopeBytes = 4 + 4 + 8 + 4

// AnonPrefix marks spill files of operands without a content key. They are
// reloadable only by the process that wrote them, so the startup scavenge
// deletes any found on disk.
const AnonPrefix = "anon-"

// Header is a spill file's parsed envelope, also surfaced by tooling
// (cmd/tnsinfo -spill).
type Header struct {
	Version uint32
	Gen     uint64 // writing shard's generation stamp
	Size    int64  // whole-file size including trailer
}

// entry is one on-disk file: either owned (a live Handle points at it) or
// an orphan awaiting adoption (written by an earlier process, or released
// back by a keep-mode Dir).
type entry struct {
	size   int64
	gen    uint64
	seq    uint64 // insertion age, for oldest-first room-making
	orphan bool
}

// Handle is the caller's claim on one spill file. It records the size and
// generation stamp the file must still carry at read time; drift is a
// typed error, never silent.
type Handle struct {
	d    *Dir
	name string
	size int64
	gen  uint64
}

// Size reports the on-disk byte size the handle's file was written with.
func (h *Handle) Size() int64 { return h.size }

// Name reports the file name (within the directory) the handle points at.
func (h *Handle) Name() string { return h.name }

// Dir is one spill directory under one byte budget. All methods are safe
// for concurrent use; the mutex is never held across filesystem IO on the
// read path (reads copy the bookkeeping they need), and write IO under it
// is what serializes room-making against concurrent writers.
type Dir struct {
	fs   FS
	path string
	keep bool // leave files on disk at Release (warm-restart persistence)

	mu     sync.Mutex
	budget int64 // bytes; <= 0 means unlimited
	bytes  int64 // summed size of every indexed file
	files  map[string]*entry
	seq    uint64
	scav   int // files the startup scavenge deleted
}

// Open prepares a spill directory: creates it if needed, deletes anonymous
// and unparsable leftovers (the startup scavenge), and indexes every valid
// keyed file as an orphan available for adoption. keep selects warm-restart
// persistence: released files stay on disk as orphans instead of being
// deleted, so the next process starts with this one's warm set.
func Open(fs FS, path string, budget int64, keep bool) (*Dir, error) {
	if fs == nil {
		fs = OS{}
	}
	if err := fs.MkdirAll(path); err != nil {
		return nil, fmt.Errorf("spill: creating %s: %w", path, err)
	}
	names, err := fs.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("spill: scanning %s: %w", path, err)
	}
	d := &Dir{fs: fs, path: path, budget: budget, keep: keep, files: map[string]*entry{}}
	for _, name := range names {
		if !strings.HasSuffix(name, Ext) {
			continue // not ours; never touch it
		}
		full := filepath.Join(path, name)
		if strings.HasPrefix(name, AnonPrefix) {
			_ = fs.Remove(full)
			d.scav++
			continue
		}
		data, rerr := fs.ReadFile(full)
		hdr, perr := ParseHeader(data)
		if rerr != nil || perr != nil {
			_ = fs.Remove(full)
			d.scav++
			continue
		}
		d.seq++
		d.files[name] = &entry{size: hdr.Size, gen: hdr.Gen, seq: d.seq, orphan: true}
		d.bytes += hdr.Size
	}
	return d, nil
}

// ParseHeader verifies data as a complete spill file (envelope fields and
// whole-file CRC) and returns its header. Tooling and the startup scavenge
// share this; the per-handle size/generation checks live in Read.
func ParseHeader(data []byte) (Header, error) {
	r, err := tnsbin.NewSectionReader(data)
	if err != nil {
		if errors.Is(err, tnsbin.ErrSectionChecksum) {
			return Header{}, fmt.Errorf("%w: %v", ErrChecksum, err)
		}
		return Header{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if m := r.U32(); m != fsplMagic || r.Err() != nil {
		return Header{}, fmt.Errorf("%w: magic %08x", ErrBadHeader, m)
	}
	h := Header{Version: r.U32(), Gen: r.U64(), Size: int64(len(data))}
	if r.Err() != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrBadHeader, r.Err())
	}
	if h.Version != fsplVersion {
		return Header{}, fmt.Errorf("%w: version %d, want %d", ErrBadHeader, h.Version, fsplVersion)
	}
	return h, nil
}

// Path returns the directory this Dir manages.
func (d *Dir) Path() string { return d.path }

// Keep reports whether the Dir persists released files (warm restart).
func (d *Dir) Keep() bool { return d.keep }

// Stats reports the on-disk gauges: indexed file count, their summed
// bytes, and how many leftovers the startup scavenge deleted.
func (d *Dir) Stats() (files int, bytes int64, scavenged int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files), d.bytes, d.scav
}

// SetBudget replaces the byte budget and enforces it immediately.
func (d *Dir) SetBudget(budget int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.budget = budget
	d.makeRoomLocked(0)
}

// makeRoomLocked deletes indexed files oldest-first until need more bytes
// fit under the budget, preferring orphans (nobody holds a claim) before
// owned files (whose handles will observe ErrMissing and rebuild — the
// documented graceful degradation, never a wrong answer). Reports whether
// the room exists afterwards.
func (d *Dir) makeRoomLocked(need int64) bool {
	if d.budget <= 0 {
		return true
	}
	for _, orphansOnly := range []bool{true, false} {
		for d.bytes+need > d.budget {
			name, e := d.oldestLocked(orphansOnly)
			if e == nil {
				break
			}
			_ = d.fs.Remove(filepath.Join(d.path, name))
			d.bytes -= e.size
			delete(d.files, name)
		}
	}
	return d.bytes+need <= d.budget
}

// oldestLocked returns the lowest-seq entry (orphans only when asked).
func (d *Dir) oldestLocked(orphansOnly bool) (string, *entry) {
	var (
		bestName string
		best     *entry
	)
	for name, e := range d.files {
		if orphansOnly && !e.orphan {
			continue
		}
		if best == nil || e.seq < best.seq {
			bestName, best = name, e
		}
	}
	return bestName, best
}

// Write seals body into the envelope (magic, version, gen, body, CRC) and
// writes it as name, replacing any existing file of that name and making
// room under the byte budget first. On any failure the file is removed
// (best effort) and no handle exists — the caller falls back to plain
// eviction.
func (d *Dir) Write(name string, gen uint64, body []byte) (*Handle, error) {
	var w tnsbin.SectionWriter
	w.U32(fsplMagic)
	w.U32(fsplVersion)
	w.U64(gen)
	w.Raw(body)
	data := w.Finish()
	size := int64(len(data))

	d.mu.Lock()
	if old := d.files[name]; old != nil {
		// Replacing our own earlier file: uncharge it before sizing the room.
		d.bytes -= old.size
		delete(d.files, name)
	}
	if !d.makeRoomLocked(size) {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %d bytes into budget %d", ErrOverBudget, size, d.budget)
	}
	if err := d.fs.WriteFile(filepath.Join(d.path, name), data); err != nil {
		d.mu.Unlock()
		_ = d.fs.Remove(filepath.Join(d.path, name))
		return nil, fmt.Errorf("spill: writing %s: %w", name, err)
	}
	d.seq++
	d.files[name] = &entry{size: size, gen: gen, seq: d.seq}
	d.bytes += size
	d.mu.Unlock()
	return &Handle{d: d, name: name, size: size, gen: gen}, nil
}

// Read loads and verifies the handle's file, returning a section reader
// positioned at the body. Every failure is one of the typed errors above,
// checked in a deterministic order: existence, then size against the
// handle's record, then the whole-file checksum, then envelope fields,
// then the generation stamp.
func (d *Dir) Read(h *Handle) (*tnsbin.SectionReader, error) {
	data, err := d.fs.ReadFile(filepath.Join(d.path, h.name))
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrMissing, h.name, err)
	}
	if int64(len(data)) != h.size {
		return nil, fmt.Errorf("%w: %s is %d bytes, wrote %d", ErrTruncated, h.name, len(data), h.size)
	}
	r, err := tnsbin.NewSectionReader(data)
	if err != nil {
		if errors.Is(err, tnsbin.ErrSectionChecksum) {
			return nil, fmt.Errorf("%w: %s: %v", ErrChecksum, h.name, err)
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrTruncated, h.name, err)
	}
	if m := r.U32(); m != fsplMagic {
		return nil, fmt.Errorf("%w: %s: magic %08x", ErrBadHeader, h.name, m)
	}
	if v := r.U32(); v != fsplVersion {
		return nil, fmt.Errorf("%w: %s: version %d, want %d", ErrBadHeader, h.name, v, fsplVersion)
	}
	if g := r.U64(); g != h.gen {
		return nil, fmt.Errorf("%w: %s carries gen %#x, handle expects %#x", ErrStale, h.name, g, h.gen)
	}
	return r, nil
}

// Release ends the handle's claim after a successful reload or a shard
// drop. Keep-mode directories leave the file on disk as an orphan (same
// generation stamp, adoptable by a restarted process); otherwise the file
// is deleted and its bytes uncharged.
func (d *Dir) Release(h *Handle) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.files[h.name]
	if e == nil || e.gen != h.gen {
		return // already replaced or evicted by room-making
	}
	if d.keep && !strings.HasPrefix(h.name, AnonPrefix) {
		e.orphan = true
		return
	}
	_ = d.fs.Remove(filepath.Join(d.path, h.name))
	d.bytes -= e.size
	delete(d.files, h.name)
}

// Discard deletes the handle's file unconditionally — the corrupt-file
// path, where keeping the bytes would only re-fail the next adoption.
func (d *Dir) Discard(h *Handle) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.files[h.name]; e != nil && e.gen == h.gen {
		d.bytes -= e.size
		delete(d.files, h.name)
	}
	_ = d.fs.Remove(filepath.Join(d.path, h.name))
}

// TakeOrphan claims the named orphan file (indexed by the startup scan or
// released by a keep-mode Dir) for adoption, returning a handle carrying
// the generation stamp the scan recorded. ok is false when no orphan of
// that name exists — owned files are never taken out from under their
// handles.
func (d *Dir) TakeOrphan(name string) (*Handle, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.files[name]
	if e == nil || !e.orphan {
		return nil, false
	}
	e.orphan = false
	return &Handle{d: d, name: name, size: e.size, gen: e.gen}, true
}

// Dir returns the directory manager a handle belongs to.
func (h *Handle) Dir() *Dir { return h.d }
