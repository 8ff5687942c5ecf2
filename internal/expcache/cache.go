// Package expcache is the on-disk result cache behind a repeated
// `experiments` invocation: rendered experiment outputs stored
// content-addressed under a cache directory, keyed by everything that
// can change the bytes — the experiment id, the exp.Options, the output
// format, and the identity of the binary that produced them. An
// unchanged experiment in a repeated `-run all` is a file read instead
// of a multi-minute re-simulation; any corrupt, stale or mismatched
// entry is treated as a miss (and evicted), falling back to a live run.
package expcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/obs"
)

// entryVersion invalidates every existing entry when the envelope
// layout changes.
const entryVersion = 1

// Dir is a cache rooted at a directory. It implements exp.Cache.
type Dir struct {
	root string
	// buildID identifies the producing binary. Entries written by a
	// different build never replay: the simulation model may have
	// changed, and "fast but wrong" is not a trade this cache makes.
	buildID string
}

var _ exp.Cache = (*Dir)(nil)

// orphanMaxAge is how old a .put-* temp file must be before Open
// sweeps it. Put writes and renames a temp within one call, so any temp
// this old belongs to a writer that crashed between CreateTemp and
// Rename; a generous margin keeps a concurrently-running slow writer's
// live temp safe. Variable so tests can plant aged orphans.
var orphanMaxAge = time.Hour

// Open creates (if needed) and opens a cache directory, sweeping any
// orphaned writer temp files a crashed process left behind.
func Open(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("expcache: %w", err)
	}
	sweepOrphans(root)
	return &Dir{root: root, buildID: buildID()}, nil
}

// sweepOrphans removes .put-* temp files older than orphanMaxAge from
// the two-level cache tree. A writer that dies between CreateTemp and
// Rename leaks its temp forever otherwise — a long-lived server that
// Opens the cache once per process would accumulate them without
// bound. Sweep errors are ignored: a temp that cannot be statted or
// removed now will be retried on the next Open.
func sweepOrphans(root string) {
	dirs, err := os.ReadDir(root)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanMaxAge)
	for _, sub := range dirs {
		if !sub.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(root, sub.Name()))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasPrefix(e.Name(), ".put-") {
				continue
			}
			info, err := e.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
			if os.Remove(filepath.Join(root, sub.Name(), e.Name())) == nil {
				obs.CacheOrphansSwept.Inc()
			}
		}
	}
}

// entry is the on-disk envelope around one rendered output.
type entry struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	Options string `json:"options"`
	CSV     bool   `json:"csv"`
	BuildID string `json:"build_id"`
	Output  string `json:"output"`
}

// optionsKey canonicalizes the options experiment id reads
// (exp.ResolveOptions) for keying, so option sets that render the same
// bytes — `experiments -seed 0` and a flagless run, a fleet option on a
// non-fleet experiment, an explicit `-fleet-nodes` equal to the
// scale-derived cap — share one entry and one hswsimd flight. %#v
// spells out every field, so options added later automatically become
// part of the key — provided they stay flat and comparable
// (TestOptionsFlatForCacheKey guards this: a pointer/slice/map field
// would embed addresses and make the key nondeterministic across
// processes).
func optionsKey(id string, o exp.Options) string {
	return fmt.Sprintf("%#v", exp.ResolveOptions(id, o))
}

// TupleKey canonicalizes a request tuple (experiment id, options,
// output format) into the deterministic string this cache keys entries
// by, minus the build identity (which is constant within one process).
// cmd/hswsimd uses it as the singleflight coalescing key: two requests
// with equal TupleKeys render byte-identical output, so one live run
// can serve all of them.
func TupleKey(id string, o exp.Options, csv bool) string {
	return fmt.Sprintf("%s|%s|csv=%t", id, optionsKey(id, o), csv)
}

// path returns the entry file for a key tuple: two-level fan-out under
// root, content-addressed by the hash of the full tuple.
func (d *Dir) path(id string, o exp.Options, csv bool) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s",
		entryVersion, TupleKey(id, o, csv), d.buildID)))
	key := hex.EncodeToString(h[:])
	return filepath.Join(d.root, key[:2], key+".json")
}

// Get returns the cached output for the tuple, if a valid entry exists.
// Invalid entries — unreadable, unparsable, or recording a different
// tuple than their name hashes to — are evicted so the follow-up Put
// replaces them.
func (d *Dir) Get(id string, o exp.Options, csv bool) ([]byte, bool) {
	p := d.path(id, o, csv)
	raw, err := os.ReadFile(p)
	if err != nil {
		obs.CacheMisses.Inc()
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		os.Remove(p)
		obs.CacheEvictions.Inc()
		obs.CacheMisses.Inc()
		return nil, false
	}
	if e.Version != entryVersion || e.ID != id || e.Options != optionsKey(id, o) ||
		e.CSV != csv || e.BuildID != d.buildID {
		os.Remove(p)
		obs.CacheEvictions.Inc()
		obs.CacheMisses.Inc()
		return nil, false
	}
	obs.CacheHits.Inc()
	return []byte(e.Output), true
}

// Put stores output for the tuple. The write is atomic (temp file +
// rename), so concurrent readers only ever see complete entries.
func (d *Dir) Put(id string, o exp.Options, csv bool, output []byte) error {
	p := d.path(id, o, csv)
	raw, err := json.MarshalIndent(entry{
		Version: entryVersion,
		ID:      id,
		Options: optionsKey(id, o),
		CSV:     csv,
		BuildID: d.buildID,
		Output:  string(output),
	}, "", " ")
	if err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return fmt.Errorf("expcache: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("expcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("expcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("expcache: %w", err)
	}
	return nil
}

// buildID derives the producing binary's identity. Preference order:
// the VCS stamp from the build info (clean builds of a commit share
// entries), then the executable's own identity (dev builds and `go run`
// from a dirty tree — a rebuild changes it, so stale model output can
// never replay; see exeID). If neither is available the id is unique per
// process, which disables cross-run reuse rather than risk it.
func buildID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" && modified != "true" {
			return "vcs-" + info.GoVersion + "-" + rev
		}
	}
	if exe, err := os.Executable(); err == nil {
		if id := exeID(exe); id != "" {
			return id
		}
	}
	return fmt.Sprintf("pid-%d", os.Getpid())
}

// exeID identifies the executable at path by the Go linker's build ID,
// the descriptor of the "Go" note of type 4 (.note.go.buildid) that the
// linker writes into every ELF executable: the ID's last part hashes
// the binary's content, so it changes whenever the binary does, and it
// sits in the file's first 32 KB, which is all that is read. A file
// with no such note there, or an empty one, is identified by the sha256
// of its bytes instead; "" means it could not be read.
func exeID(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	head := make([]byte, 32<<10)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF {
		return ""
	}
	if id := goBuildID(head[:n]); id != "" {
		return "go-" + id
	}
	h := sha256.New()
	h.Write(head[:n])
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return "exe-" + hex.EncodeToString(h.Sum(nil)[:16])
}

// goBuildID returns the Go build-ID note's descriptor from head, the
// start of an ELF file, or "" if head is not ELF or holds no such note
// in a PT_NOTE segment. It reads the note as `go tool buildid` does,
// without debug/elf, whose tables every process would otherwise carry.
func goBuildID(head []byte) string {
	if len(head) < 64 || string(head[:4]) != "\x7fELF" {
		return ""
	}
	var bo binary.ByteOrder = binary.LittleEndian
	if head[5] == 2 { // ELFDATA2MSB
		bo = binary.BigEndian
	}
	// The program header table: offset, entry size and count sit at
	// class-dependent offsets of the file header (ELFCLASS64 = 2).
	is64 := head[4] == 2
	phoff, phentsize, phnum := uint64(bo.Uint32(head[28:])), uint64(bo.Uint16(head[42:])), uint64(bo.Uint16(head[44:]))
	if is64 {
		phoff, phentsize, phnum = bo.Uint64(head[32:]), uint64(bo.Uint16(head[54:])), uint64(bo.Uint16(head[56:]))
	}
	for i := uint64(0); i < phnum; i++ {
		ph := phoff + i*phentsize
		if ph > uint64(len(head)) || uint64(len(head))-ph < 40 {
			return ""
		}
		const ptNote = 4
		if bo.Uint32(head[ph:]) != ptNote {
			continue
		}
		off, size := uint64(bo.Uint32(head[ph+4:])), uint64(bo.Uint32(head[ph+16:]))
		if is64 {
			off, size = bo.Uint64(head[ph+8:]), bo.Uint64(head[ph+32:])
		}
		if off > uint64(len(head)) || size > uint64(len(head))-off {
			continue
		}
		// Each note: name size, descriptor size, type, then the name and
		// the descriptor, each padded to 4 bytes.
		for note := head[off : off+size]; len(note) >= 16; {
			namesz, descsz := uint64(bo.Uint32(note)), uint64(bo.Uint32(note[4:]))
			const goBuildIDNote = 4
			if namesz == 4 && bo.Uint32(note[8:]) == goBuildIDNote &&
				string(note[12:16]) == "Go\x00\x00" && descsz <= uint64(len(note))-16 {
				return string(note[16 : 16+descsz])
			}
			next := 12 + (namesz+3)&^3 + (descsz+3)&^3
			if next > uint64(len(note)) {
				break
			}
			note = note[next:]
		}
	}
	return ""
}
