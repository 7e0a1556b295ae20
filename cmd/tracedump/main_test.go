package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden dumps under testdata from the current
// output: go test ./cmd/tracedump -run Dump -update
var update = flag.Bool("update", false, "rewrite golden files")

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}

// checkGolden compares the whole dump for args, every event included
// (-last 0), against the named golden file byte for byte (or rewrites the
// file under -update).
func checkGolden(t *testing.T, file string, args []string) {
	t.Helper()
	out, err := capture(t, func() error { return run(append(args, "-last", "0")) })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("%s: output differs from golden\n--- got ---\n%s\n--- want ---\n%s", file, out, want)
	}
}

// TestDumpVMM pins the default dump (the vmm stack) event by event.
func TestDumpVMM(t *testing.T) { checkGolden(t, "vmm.txt.golden", nil) }

// TestDumpMK pins the mk stack's dump event by event.
func TestDumpMK(t *testing.T) { checkGolden(t, "mk.txt.golden", []string{"-platform", "mk"}) }

func TestBadPlatform(t *testing.T) {
	if err := run([]string{"-platform", "hurd"}); err == nil {
		t.Fatal("unknown platform accepted")
	}
}
