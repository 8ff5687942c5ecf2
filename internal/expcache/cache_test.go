package expcache

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/obs"
)

func open(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPutGetRoundTrip(t *testing.T) {
	d := open(t)
	o := exp.Options{Scale: 0.25, Seed: 0x5eed}
	out := []byte("==== rendered table ====\nrow 1\n")
	if _, ok := d.Get("tab4", o, false); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := d.Put("tab4", o, false, out); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("tab4", o, false)
	if !ok || string(got) != string(out) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Every key component separates entries.
	if _, ok := d.Get("tab5", o, false); ok {
		t.Fatal("id not part of the key")
	}
	if _, ok := d.Get("tab4", exp.Options{Scale: 0.5, Seed: 0x5eed}, false); ok {
		t.Fatal("scale not part of the key")
	}
	if _, ok := d.Get("tab4", exp.Options{Scale: 0.25, Seed: 1}, false); ok {
		t.Fatal("seed not part of the key")
	}
	if _, ok := d.Get("tab4", o, true); ok {
		t.Fatal("format not part of the key")
	}
}

// TestSeedZeroKeysAsSuiteSeed: Seed 0 renders the suite seed's bytes,
// so an entry stored under either spelling serves the other, and both
// spellings share one coalescing key.
func TestSeedZeroKeysAsSuiteSeed(t *testing.T) {
	out := []byte("==== rendered table ====\n")
	for _, c := range []struct{ put, get uint64 }{{0x5eed, 0}, {0, 0x5eed}} {
		d := open(t)
		if err := d.Put("tab3", exp.Options{Scale: 0.05, Seed: c.put}, false, out); err != nil {
			t.Fatal(err)
		}
		if got, ok := d.Get("tab3", exp.Options{Scale: 0.05, Seed: c.get}, false); !ok || string(got) != string(out) {
			t.Errorf("Put under seed %#x, Get under seed %#x: %q, %v", c.put, c.get, got, ok)
		}
	}
	if a, b := TupleKey("tab3", exp.Options{Scale: 0.05}, false),
		TupleKey("tab3", exp.Options{Scale: 0.05, Seed: 0x5eed}, false); a != b {
		t.Errorf("seed 0 and the suite seed key apart: %q, %q", a, b)
	}
}

// entryFile locates the single stored entry.
func entryFile(t *testing.T, d *Dir) string {
	t.Helper()
	var found string
	err := filepath.Walk(d.root, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") {
			found = p
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file found: %v", err)
	}
	return found
}

func TestCorruptEntryIsMissAndEvicted(t *testing.T) {
	d := open(t)
	o := exp.Options{Scale: 1, Seed: 2}
	if err := d.Put("fig2", o, false, []byte("data")); err != nil {
		t.Fatal(err)
	}
	p := entryFile(t, d)
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("fig2", o, false); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not evicted")
	}
	// A follow-up Put/Get recovers.
	if err := d.Put("fig2", o, false, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get("fig2", o, false); !ok || string(got) != "fresh" {
		t.Fatal("cache did not recover after eviction")
	}
}

func TestStaleBuildIsMiss(t *testing.T) {
	d := open(t)
	o := exp.Options{Scale: 1, Seed: 2}
	if err := d.Put("fig3", o, false, []byte("old model output")); err != nil {
		t.Fatal(err)
	}
	// A rebuilt binary opens the same directory with a new build id:
	// the old entry must never replay.
	d2 := &Dir{root: d.root, buildID: d.buildID + "-rebuilt"}
	if _, ok := d2.Get("fig3", o, false); ok {
		t.Fatal("entry from a different build served as a hit")
	}
	if err := d2.Put("fig3", o, false, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get("fig3", o, false); !ok || string(got) != "new" {
		t.Fatal("re-store under the new build failed")
	}
	// The original build's entry is untouched (different key).
	if got, ok := d.Get("fig3", o, false); !ok || string(got) != "old model output" {
		t.Fatal("old build entry clobbered")
	}
}

func TestMismatchedEnvelopeIsEvicted(t *testing.T) {
	d := open(t)
	o := exp.Options{Scale: 1, Seed: 3}
	if err := d.Put("tab2", o, false, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry claiming a different tuple than its filename
	// hashes to (e.g. a file restored to the wrong path): paranoia
	// check must reject and evict it.
	p := entryFile(t, d)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(strings.Replace(string(raw), `"tab2"`, `"tab3"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("tab2", o, false); ok {
		t.Fatal("mismatched envelope served as a hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("mismatched entry not evicted")
	}
}

// FuzzCacheEntry writes hostile bytes as one tuple's entry file and
// reads the tuple back. Get must not panic. It may hit only when the
// bytes decode to that tuple's exact envelope (version, id, options
// key, csv flag and build id), and then it returns the envelope's
// output and keeps the file; any other bytes miss and evict the file.
// The seed corpus holds the entry Put writes and corruptions of it.
func FuzzCacheEntry(f *testing.F) {
	const id = "fig2"
	o := exp.Options{Scale: 0.25, Seed: 7}
	d := &Dir{root: f.TempDir(), buildID: "go-fuzz"}
	if err := d.Put(id, o, false, []byte("==== Figure 2 ====\nrow 1\n")); err != nil {
		f.Fatal(err)
	}
	p := d.path(id, o, false)
	raw, err := os.ReadFile(p)
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := d.Get(id, o, false); !ok {
		f.Fatal("the entry Put wrote misses")
	}
	want := entry{Version: entryVersion, ID: id, Options: optionsKey(id, o), BuildID: d.buildID}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte("null"))
	// One envelope field off at a time, then a field of the wrong type.
	for _, r := range [][2]string{
		{`"version": 1`, `"version": 2`},
		{`"fig2"`, `"fig3"`},
		{`Seed:0x7`, `Seed:0x8`},
		{`"csv": false`, `"csv": true`},
		{`"go-fuzz"`, `"go-other"`},
		{`"csv": false`, `"csv": "no"`},
	} {
		if !strings.Contains(string(raw), r[0]) {
			f.Fatalf("the entry Put wrote lacks %s", r[0])
		}
		f.Add([]byte(strings.Replace(string(raw), r[0], r[1], 1)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		out, hit := d.Get(id, o, false)
		var e entry
		exact := json.Unmarshal(raw, &e) == nil
		output := e.Output
		e.Output = ""
		exact = exact && e == want
		_, statErr := os.Stat(p)
		switch {
		case hit != exact:
			t.Fatalf("%q: hit %v, want %v (whether it decodes to the tuple's envelope)", raw, hit, exact)
		case hit && string(out) != output:
			t.Fatalf("%q: hit returned %q, want %q", raw, out, output)
		case hit && statErr != nil:
			t.Fatalf("%q: hit, but its entry is gone: %v", raw, statErr)
		case !hit && !os.IsNotExist(statErr):
			t.Fatalf("%q: missed, but its entry was not evicted: %v", raw, statErr)
		}
	})
}

// TestOrphanTempSweep plants writer temp files as a crashed process
// would leave them (created but never renamed) and checks Open's
// age-based sweep: stale orphans are removed and counted, fresh temps
// (a concurrent writer mid-Put) survive.
func TestOrphanTempSweep(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(sub, ".put-1234crashed")
	fresh := filepath.Join(sub, ".put-5678live")
	entry := filepath.Join(sub, "abcd.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * orphanMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// Age the real entry too: the sweep must key on the .put- prefix,
	// never on age alone.
	if err := os.Chtimes(entry, old, old); err != nil {
		t.Fatal(err)
	}

	before := obs.CacheOrphansSwept.Value()
	if _, err := Open(root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale orphan temp survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp removed by sweep: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Errorf("old cache entry removed by sweep: %v", err)
	}
	if got := obs.CacheOrphansSwept.Value() - before; got != 1 {
		t.Errorf("CacheOrphansSwept delta = %d, want 1", got)
	}
}

func TestBuildIDStable(t *testing.T) {
	a, b := buildID(), buildID()
	if a == "" || a != b {
		t.Fatalf("buildID unstable: %q vs %q", a, b)
	}
	d1, d2 := open(t), open(t)
	if d1.buildID != d2.buildID {
		t.Fatal("Open derives different build ids in one process")
	}
}

// TestExeIDIsGoBuildID: an unstamped binary is identified by the Go
// build ID its ELF note carries, exactly what `go tool buildid` prints
// for it.
func TestExeIDIsGoBuildID(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if f, err := elf.Open(exe); err != nil {
		t.Skipf("test binary is not ELF: %v", err)
	} else {
		f.Close()
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, "tool", "buildid", exe).Output()
	if err != nil {
		t.Skipf("go tool buildid: %v", err)
	}
	want := strings.TrimSpace(string(out))
	if want == "" {
		t.Fatal("go tool buildid printed nothing")
	}
	if got := exeID(exe); got != "go-"+want {
		t.Fatalf("exeID = %q, want %q", got, "go-"+want)
	}
}

// TestExeIDHashesNonELF: a file without a Go build-ID note — not ELF,
// or an ELF header whose program headers lie past the end of the file —
// is identified by the hash of its bytes.
func TestExeIDHashesNonELF(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	truncated := make([]byte, 100)
	_, err = io.ReadFull(f, truncated)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{[]byte("#!/bin/sh\necho not an ELF binary\n"), truncated} {
		path := filepath.Join(t.TempDir(), "exe")
		if err := os.WriteFile(path, body, 0o755); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got, want := exeID(path), "exe-"+hex.EncodeToString(sum[:16]); got != want {
			t.Fatalf("exeID of %q = %q, want %q", body[:4], got, want)
		}
	}
	if got := exeID(filepath.Join(t.TempDir(), "missing")); got != "" {
		t.Fatalf("exeID of a missing file = %q, want \"\"", got)
	}
}

// TestFleetOptionsKeyed is the collision regression for the fleet
// fields: options differing only in a fleet override must never share
// a cache entry — a stale hit would replay a differently-sized (or
// differently-seeded) fleet's table as if it were the requested one.
func TestFleetOptionsKeyed(t *testing.T) {
	d := open(t)
	base := exp.Options{Scale: 0.25, Seed: 0x5eed}
	out := []byte("fleet table\n")
	if err := d.Put("fleet", base, false, out); err != nil {
		t.Fatal(err)
	}
	variants := map[string]exp.Options{
		"node count": {Scale: 0.25, Seed: 0x5eed, Fleet: exp.FleetOptions{Nodes: 256}},
		"fleet seed": {Scale: 0.25, Seed: 0x5eed, Fleet: exp.FleetOptions{Seed: 0xbeef}},
		"leak sigma": {Scale: 0.25, Seed: 0x5eed, Fleet: exp.FleetOptions{LeakSigma: 0.2}},
		"ceff sigma": {Scale: 0.25, Seed: 0x5eed, Fleet: exp.FleetOptions{CeffSigma: 0.1}},
		"vmin sigma": {Scale: 0.25, Seed: 0x5eed, Fleet: exp.FleetOptions{VminSigmaV: 0.02}},
	}
	for name, o := range variants {
		if _, ok := d.Get("fleet", o, false); ok {
			t.Errorf("%s not part of the cache key: stale hit", name)
		}
	}
	// And each variant round-trips under its own key.
	o := variants["node count"]
	if err := d.Put("fleet", o, false, []byte("256-node table\n")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get("fleet", o, false); !ok || string(got) != "256-node table\n" {
		t.Fatalf("variant round-trip failed: %q, %v", got, ok)
	}
	if got, _ := d.Get("fleet", base, false); string(got) != string(out) {
		t.Fatalf("base entry clobbered by variant: %q", got)
	}
}
