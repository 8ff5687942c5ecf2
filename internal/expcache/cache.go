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
// entries), then a hash of the executable itself (dev builds and `go
// run` from a dirty tree — a rebuild changes the hash, so stale model
// output can never replay). If neither is available the id is unique
// per process, which disables cross-run reuse rather than risk it.
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
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return "exe-" + hex.EncodeToString(h.Sum(nil)[:16])
			}
		}
	}
	return fmt.Sprintf("pid-%d", os.Getpid())
}
