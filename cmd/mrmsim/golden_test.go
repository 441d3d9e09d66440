package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output (make golden)")

// goldenDir holds one byte-exact output per experiment, shared with the
// repository root so the files sit next to the rest of its test data.
const goldenDir = "../../testdata/golden"

// goldenCase is one pinned mrmsim invocation: the golden file name and the
// command-line arguments that produce it.
type goldenCase struct {
	name string
	args []string
}

// goldenCases lists every pinned invocation: each experiment E1–E30 at
// seed 42 on an 8-worker sweep pool (the mrmsim fault defaults, -fault-rate
// 1e-3 -fault-seed 7, apply to e30), plus a small fleet day on each of the
// HBM-only and HBM+MRM node configurations.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for i := 1; i <= 30; i++ {
		e := fmt.Sprintf("e%d", i)
		cases = append(cases, goldenCase{e, []string{"-exp", e, "-seed", "42", "-parallel", "8"}})
	}
	for _, mem := range []string{"hbm", "mrm"} {
		cases = append(cases, goldenCase{"fleetday-" + mem, []string{
			"-exp", "fleetday", "-fleet-nodes", "20", "-fleet-hours", "1", "-fleet-rate", "0.5",
			"-fleet-mem", mem, "-seed", "42", "-parallel", "8",
		}})
	}
	return cases
}

// TestGolden runs every pinned invocation in-process and diffs its stdout
// against testdata/golden/<name>.txt byte for byte. Regenerate the files
// after an intentional output change with `make golden`.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("mrmsim %s: exit %d\n%s", strings.Join(c.args, " "), code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("mrmsim %s: unexpected stderr:\n%s", strings.Join(c.args, " "), stderr.String())
			}
			path := filepath.Join(goldenDir, c.name+".txt")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make golden` to create it)", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("mrmsim %s differs from %s:\n%s", strings.Join(c.args, " "), path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff reports the first differing line of two outputs with its
// neighbours, enough to locate a drift without an external diff tool.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "outputs differ only in length"
}

// TestFlagErrors pins the exit-code contract: a bad flag value exits 2 with
// the parse error on stderr, and an unknown -fleet-mem exits 1.
func TestFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-parallel", "bogus"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("-parallel bogus: exit %d stdout %q, want 2 and no output", code, stdout.String())
	}
	stderr.Reset()
	if code := run([]string{"-exp", "fleetday", "-fleet-mem", "nosuch"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), `unknown -fleet-mem "nosuch"`) {
		t.Errorf("-fleet-mem nosuch: exit %d stderr %q, want 1 naming the bad value", code, stderr.String())
	}
}
