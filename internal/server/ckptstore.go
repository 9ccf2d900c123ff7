package server

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ckptEntry is one retained session state: either a live checkpoint
// (blob, resumable mid-stream) or a finished session's final result
// (final, replayed if the result frame was lost in flight).
type ckptEntry struct {
	seq   uint64 // last batch sequence number covered
	blob  []byte // core.Profiler checkpoint; nil for finished sessions
	final []byte // retained final-result JSON; nil for live sessions
	stamp uint64 // LRU clock at last touch
}

// ckptStore retains session checkpoints for resume: an in-memory map
// with LRU eviction, optionally spilled to a directory so checkpoints
// survive a daemon restart. Disk entries carry a checksum envelope, so
// a torn write or bit rot surfaces as a descriptive resume error.
//
// Disk format ("RDXS", version 2, big-endian):
//
//	magic  [4]byte "RDXS"
//	version u8
//	kind    u8   0 = live checkpoint, 1 = final result
//	seq     u64
//	crc     u32  IEEE crc32 of version, kind, seq, len and body
//	len     u32  body length
//	body    len bytes
//
// The checksum covers the header fields too: a damaged seq or kind
// would otherwise load as a different entry. Version 1 checksummed the
// body alone, and its files are refused.
type ckptStore struct {
	mu      sync.Mutex
	mem     map[string]*ckptEntry
	free    [][]byte // retired live-checkpoint blobs awaiting reuse
	clock   uint64
	maxMem  int
	dir     string // "" = memory only
	maxDisk int
	saves   int // save counter driving the periodic disk sweep
	logf    func(format string, args ...any)
}

// maxFreeBlobs bounds the retired-blob recycling list; beyond it,
// replaced checkpoint blobs go to the garbage collector.
const maxFreeBlobs = 32

var ckptDiskMagic = [4]byte{'R', 'D', 'X', 'S'}

const (
	ckptDiskVersion  = 2
	ckptKindLive     = 0
	ckptKindFinal    = 1
	ckptDiskOverhead = 4 + 1 + 1 + 8 + 4 + 4
	// ckptSweepEvery triggers the disk-retention sweep every that many
	// saves.
	ckptSweepEvery = 64
)

func newCkptStore(dir string, maxMem, maxDisk int, logf func(string, ...any)) *ckptStore {
	return &ckptStore{
		mem:     make(map[string]*ckptEntry),
		maxMem:  maxMem,
		dir:     dir,
		maxDisk: maxDisk,
		logf:    logf,
	}
}

// newSessionToken draws a fresh 128-bit session token (32 hex chars).
func newSessionToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random token: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// validToken reports whether tok has the exact shape newSessionToken
// produces. Tokens become file names in the spill directory, so
// anything else — path separators, dots, wrong length — is rejected
// before it touches the filesystem.
func validToken(tok string) bool {
	if len(tok) != 32 {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// save retains a live checkpoint for token, spilling it to the
// checkpoint directory when one is configured. Acknowledgments to the
// client are sent only after save returns nil, so an acked batch is as
// durable as the store gets.
func (cs *ckptStore) save(token string, seq uint64, blob []byte) error {
	cs.put(token, &ckptEntry{seq: seq, blob: blob})
	if cs.dir != "" {
		return cs.writeDisk(token, ckptKindLive, seq, blob)
	}
	return nil
}

// saveFinal replaces token's checkpoint with the finished session's
// result, retained so a lost result frame can be served again on
// resume.
func (cs *ckptStore) saveFinal(token string, seq uint64, result []byte) error {
	cs.put(token, &ckptEntry{seq: seq, final: result})
	if cs.dir != "" {
		return cs.writeDisk(token, ckptKindFinal, seq, result)
	}
	return nil
}

func (cs *ckptStore) put(token string, ent *ckptEntry) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.clock++
	ent.stamp = cs.clock
	if old, ok := cs.mem[token]; ok {
		cs.recycleLocked(old)
	}
	cs.mem[token] = ent
	for len(cs.mem) > cs.maxMem {
		victim, oldest := "", uint64(0)
		for t, e := range cs.mem {
			if victim == "" || e.stamp < oldest {
				victim, oldest = t, e.stamp
			}
		}
		cs.recycleLocked(cs.mem[victim])
		delete(cs.mem, victim)
	}
}

// recycleLocked retires a replaced or evicted entry's live blob into
// the reuse list. Safe because live blobs have exactly one owner — the
// store — once saved: load hands out copies, never the stored slice.
// Final-result payloads are excluded; they alias the session's retained
// finalResult.
func (cs *ckptStore) recycleLocked(ent *ckptEntry) {
	if ent == nil || ent.blob == nil || len(cs.free) >= maxFreeBlobs {
		return
	}
	cs.free = append(cs.free, ent.blob)
	ent.blob = nil
}

// blobBuf returns a retired blob buffer for the next CheckpointInto, or
// nil when none is free (the encoder then allocates).
func (cs *ckptStore) blobBuf() []byte {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if n := len(cs.free); n > 0 {
		buf := cs.free[n-1]
		cs.free[n-1] = nil
		cs.free = cs.free[:n-1]
		return buf
	}
	return nil
}

// load fetches token's entry, from memory or (after an eviction or a
// daemon restart) from the spill directory. The returned entry's blob
// is the caller's copy: the stored one may be recycled by a later save
// while the caller is still decoding.
func (cs *ckptStore) load(token string) (*ckptEntry, error) {
	if !validToken(token) {
		return nil, fmt.Errorf("malformed resume token")
	}
	cs.mu.Lock()
	ent, ok := cs.mem[token]
	var cp *ckptEntry
	if ok {
		cs.clock++
		ent.stamp = cs.clock
		cp = &ckptEntry{seq: ent.seq, final: ent.final, stamp: ent.stamp}
		if ent.blob != nil {
			cp.blob = append([]byte(nil), ent.blob...)
		}
	}
	cs.mu.Unlock()
	if ok {
		return cp, nil
	}
	if cs.dir == "" {
		return nil, fmt.Errorf("unknown or expired resume token")
	}
	ent, err := cs.readDisk(token)
	if err != nil {
		return nil, err
	}
	// Re-home in memory with its own copy of the blob, so the entry the
	// caller decodes stays untouched by future saves.
	home := &ckptEntry{seq: ent.seq, final: ent.final}
	if ent.blob != nil {
		home.blob = append([]byte(nil), ent.blob...)
	}
	cs.put(token, home)
	return ent, nil
}

// drop forgets token everywhere.
func (cs *ckptStore) drop(token string) {
	cs.mu.Lock()
	delete(cs.mem, token)
	cs.mu.Unlock()
	if cs.dir != "" {
		os.Remove(cs.path(token))
	}
}

func (cs *ckptStore) path(token string) string {
	return filepath.Join(cs.dir, token+".rdxs")
}

// writeDisk spills one entry atomically: full write to a temp file,
// fsync-free rename into place (the checksum envelope catches torn
// writes on the read side).
func (cs *ckptStore) writeDisk(token string, kind uint8, seq uint64, body []byte) error {
	buf := make([]byte, ckptDiskOverhead, ckptDiskOverhead+len(body))
	copy(buf, ckptDiskMagic[:])
	buf[4] = ckptDiskVersion
	buf[5] = kind
	binary.BigEndian.PutUint64(buf[6:], seq)
	binary.BigEndian.PutUint32(buf[18:], uint32(len(body)))
	buf = append(buf, body...)
	binary.BigEndian.PutUint32(buf[14:], ckptDiskCRC(buf))

	tmp := cs.path(token) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o600); err != nil {
		return fmt.Errorf("server: spilling checkpoint: %w", err)
	}
	if err := os.Rename(tmp, cs.path(token)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: spilling checkpoint: %w", err)
	}
	cs.mu.Lock()
	cs.saves++
	sweep := cs.saves%ckptSweepEvery == 0
	cs.mu.Unlock()
	if sweep {
		cs.sweepDisk()
	}
	return nil
}

// ckptDiskCRC is the checksum of a disk entry: every byte after the
// magic except the checksum field itself.
func ckptDiskCRC(data []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(data[4:14]), crc32.IEEETable, data[18:])
}

func (cs *ckptStore) readDisk(token string) (*ckptEntry, error) {
	data, err := os.ReadFile(cs.path(token))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("unknown or expired resume token")
		}
		return nil, fmt.Errorf("reading checkpoint: %v", err)
	}
	if len(data) < ckptDiskOverhead || [4]byte(data[:4]) != ckptDiskMagic {
		return nil, fmt.Errorf("corrupt checkpoint: bad envelope")
	}
	if data[4] != ckptDiskVersion {
		return nil, fmt.Errorf("corrupt checkpoint: unsupported version %d", data[4])
	}
	kind := data[5]
	seq := binary.BigEndian.Uint64(data[6:])
	wantCRC := binary.BigEndian.Uint32(data[14:])
	n := binary.BigEndian.Uint32(data[18:])
	body := data[ckptDiskOverhead:]
	if uint32(len(body)) != n {
		return nil, fmt.Errorf("corrupt checkpoint: %d body bytes, envelope declares %d", len(body), n)
	}
	if ckptDiskCRC(data) != wantCRC {
		return nil, fmt.Errorf("corrupt checkpoint: checksum mismatch")
	}
	ent := &ckptEntry{seq: seq}
	switch kind {
	case ckptKindLive:
		ent.blob = body
	case ckptKindFinal:
		ent.final = body
	default:
		return nil, fmt.Errorf("corrupt checkpoint: unknown kind %d", kind)
	}
	return ent, nil
}

// sweepDisk keeps the spill directory bounded: when it holds more than
// maxDisk entries, the oldest (by modification time) are removed.
func (cs *ckptStore) sweepDisk() {
	entries, err := os.ReadDir(cs.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	var files []aged
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".rdxs" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{name: e.Name(), mod: info.ModTime().UnixNano()})
	}
	if len(files) <= cs.maxDisk {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files[:len(files)-cs.maxDisk] {
		os.Remove(filepath.Join(cs.dir, f.name))
		cs.logf("rdxd: swept old checkpoint %s", f.name)
	}
}
