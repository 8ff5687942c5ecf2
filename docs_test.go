package hswsim

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// currentDocs returns the documents that describe the code as it is.
// PAPER.md, CHANGES.md and ROADMAP.md are history — they record what
// once existed — and are not scanned.
func currentDocs(t *testing.T) map[string]string {
	t.Helper()
	names := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, pat := range []string{"docs/*.md", ".claude/skills/*/SKILL.md"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, m...)
	}
	docs := map[string]string{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	return docs
}

// TestDocsNameExistingCommands: every cmd/<name> the current documents
// name, brace lists such as cmd/{a,b} included, is a directory under
// cmd/, so deleting a command cannot leave a doc line pointing at
// nothing.
func TestDocsNameExistingCommands(t *testing.T) {
	ref := regexp.MustCompile(`cmd/(\{[^}]*\}|[a-z0-9_-]+)`)
	for doc, text := range currentDocs(t) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			for _, name := range strings.Split(strings.Trim(m[1], "{}"), ",") {
				if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
					t.Errorf("%s names cmd/%s, which does not exist", doc, name)
				}
			}
		}
	}
}

// TestDocsNameRegisteredMetrics: every backquoted counter (`*_total`)
// or wall-time histogram (`*_wall_ns`) the current documents name is
// registered in obs's process-wide registry, so deleting a metric
// cannot leave a doc pointing readers at a series that no longer
// exists. The registered names are read from package obs's source,
// where every process-wide metric is declared on std (the registry
// obs.Snapshot reads); a snapshot would miss a labelled family that has
// no member yet.
func TestDocsNameRegisteredMetrics(t *testing.T) {
	srcs, err := filepath.Glob("internal/obs/*.go")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`std\.(?:Counter|Gauge|Histogram|CounterVec)\(\s*"([a-z0-9_]+)"`)
	registered := map[string]bool{}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(b), -1) {
			registered[m[1]] = true
		}
	}
	if !registered["sched_slot_acquires_total"] {
		t.Fatalf("found no process-wide registry declarations in %v", srcs)
	}
	ref := regexp.MustCompile("`([a-z0-9_]+(?:_total|_wall_ns))`")
	for doc, text := range currentDocs(t) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			if !registered[m[1]] {
				t.Errorf("%s names `%s`, which obs's process-wide registry does not register", doc, m[1])
			}
		}
	}
}

// TestDocsNameServedRoutes: every `/v1/<name>` path the current
// documents put in code, an inline span or a fenced block, with or
// without a query, is a route internal/server registers, and a method
// written just before the path is one the route answers. The routes
// are read from the server's HandleFunc patterns, so deleting a route
// cannot leave a doc line sending readers to a 404.
func TestDocsNameServedRoutes(t *testing.T) {
	srcs, err := filepath.Glob("internal/server/*.go")
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`HandleFunc\("(?:([A-Z]+) )?(/[^" ]*)"`)
	methods := map[string][]string{} // path -> methods; "" answers any
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pattern.FindAllStringSubmatch(string(b), -1) {
			methods[m[2]] = append(methods[m[2]], m[1])
		}
	}
	if len(methods["/v1/run"]) == 0 {
		t.Fatalf("found no /v1/run route in %v", srcs)
	}
	inline := regexp.MustCompile("`[^`]+`")
	route := regexp.MustCompile(`(?:\b([A-Z]+)\s+)?(/v1/[a-z0-9_-]+)`)
	for doc, text := range currentDocs(t) {
		fenced := false
		for i, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			code := []string{line}
			if !fenced {
				code = inline.FindAllString(line, -1)
			}
			for _, c := range code {
				for _, m := range route.FindAllStringSubmatch(c, -1) {
					method, path := m[1], m[2]
					served, ok := methods[path]
					switch {
					case !ok:
						t.Errorf("%s:%d names %s, which internal/server does not serve", doc, i+1, path)
					case method != "" && !slices.Contains(served, method) && !slices.Contains(served, ""):
						t.Errorf("%s:%d names %s %s, but internal/server serves %s only to %v", doc, i+1, method, path, path, served)
					}
				}
			}
		}
	}
}
