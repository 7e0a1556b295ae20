package bench

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"vmmk/internal/core"
	"vmmk/internal/scenario"
)

// The correctness oracle: what every simulated output must equal. The
// simulator is deterministic, so the oracle is recorded once (-update) and
// any later difference is a change in simulated behaviour, which a
// host-performance change must never make.
//
//	sweep.sha256      one "<experiment> <sha256 of Result.Text()>" line per experiment
//	faults.ids        the pinned scenario rows the faults workload runs
//	io.seed1, ...     one digest per epoch of the input period, for seeds 1 and 2
//
//go:embed testdata
var testdata embed.FS

// oracleSeeds are the seeds whose io and fleet epoch digests are stored.
var oracleSeeds = []uint64{1, 2}

// readLines returns the non-empty lines of the embedded testdata file.
func readLines(name string) ([]string, error) {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, l := range strings.Split(string(b), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out, nil
}

// sweepDigests returns the stored text digest per experiment id.
func sweepDigests() (map[string]string, error) {
	lines, err := readLines("sweep.sha256")
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, l := range lines {
		id, sum, ok := strings.Cut(l, " ")
		if !ok {
			return nil, fmt.Errorf("sweep.sha256: malformed line %q", l)
		}
		out[id] = sum
	}
	return out, nil
}

// epochOracle returns the stored per-epoch digests of workload w for seed,
// or nil when none are stored for that seed.
func epochOracle(w string, seed uint64) ([]string, error) {
	lines, err := readLines(fmt.Sprintf("%s.seed%d", w, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return lines, err
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// experimentText runs one registered experiment and renders it the way
// `vmmklab <id>` prints its body — the sweep workload's op, one experiment
// at a time.
func experimentText(r *core.Runner, id string, p core.Params) (string, error) {
	res, err := r.RunExperiment(context.Background(), id, p)
	if err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	return res.Text(), nil
}

// Update regenerates every oracle file in dir, which must exist, from the
// current simulator.
func Update(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("oracle directory: %w (run -update from bench/)", err)
	}
	var sweep strings.Builder
	r := core.NewRunner(1)
	for _, s := range core.Specs() {
		txt, err := experimentText(r, s.ID, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(&sweep, "%s %s\n", s.ID, digest(txt))
	}
	files := map[string]string{"sweep.sha256": sweep.String()}
	var ids strings.Builder
	for _, s := range scenario.Rows() {
		ids.WriteString(s.ID + "\n")
	}
	files["faults.ids"] = ids.String()
	for _, w := range Workloads {
		if w.EpochOps == 0 {
			continue
		}
		for _, seed := range oracleSeeds {
			ds, err := periodDigests(w, seed)
			if err != nil {
				return err
			}
			files[fmt.Sprintf("%s.seed%d", w.Name, seed)] = strings.Join(ds, "\n") + "\n"
		}
	}
	for _, name := range sortedKeys(files) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(files[name]), 0o644); err != nil {
			return err
		}
	}
	return nil
}
