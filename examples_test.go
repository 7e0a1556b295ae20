package vmmk

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesCompile type-checks and compiles every example main without
// running it. Unlike TestExamplesRun it is cheap enough to keep in -short
// mode, so a broken example can never slip through a quick test cycle.
func TestExamplesCompile(t *testing.T) {
	out, err := exec.Command("go", "build", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("examples no longer compile: %v\n%s", err, out)
	}
}

// TestQuickstartRuns runs the quickstart example end-to-end — it terminates
// in well under a second, so it stays enabled even in -short mode.
func TestQuickstartRuns(t *testing.T) {
	out, err := exec.Command("go", "run", "./examples/quickstart").CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "IPC-equivalent ops") {
		t.Fatalf("quickstart output missing marker:\n%s", out)
	}
}

// updateExamples regenerates the example goldens under testdata/examples
// from the current output: go test -run TestExamplesRun -update-examples .
var updateExamples = flag.Bool("update-examples", false, "rewrite the example goldens")

// TestExamplesRun builds and runs every example program and compares its
// stdout byte for byte with testdata/examples/<name>.txt.golden. The
// simulation is deterministic, so any diff is a real change to what the
// documentation-facing code prints.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five example binaries")
	}
	for _, dir := range []string{"quickstart", "ioserver", "faultlab", "portability", "migration"} {
		t.Run(dir, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+dir)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("example failed: %v\n%s%s", err, out, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", dir+".txt.golden")
			if *updateExamples {
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-examples)", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s: output differs from golden\n--- got ---\n%s\n--- want ---\n%s", golden, out, want)
			}
		})
	}
}
