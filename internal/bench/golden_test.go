package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compreuse/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden:\n%s", path, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&sb, "line %d:\n  want %q\n  got  %q\n", i+1, w, g)
		}
	}
	return sb.String()
}

// TestReportGolden pins everything the VM feeds into a pipeline report:
// frequencies (Snapshot), op counts (Energy), measured C and R (Profiles,
// Ledger), table stats and access counts, output and cycles. Each full
// core.Report is serialized as JSON and stored as a SHA-256, with the
// baseline and reuse cycles in clear text beside it so a drift reads.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline over the whole suite")
	}
	r := NewRunner()
	r.Scale = 32
	var sb strings.Builder
	for _, p := range All() {
		for _, level := range []string{"O0", "O3"} {
			for _, dep := range []bool{false, true} {
				opts := r.options(p, level)
				opts.DepKeys = dep
				rep, err := core.Run(opts)
				if err != nil {
					t.Fatalf("%s/%s dep=%v: %v", p.Name, level, dep, err)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatalf("%s/%s dep=%v: %v", p.Name, level, dep, err)
				}
				fmt.Fprintf(&sb, "%-12s %s dep=%-5v base=%d reuse=%d sha256=%x\n",
					p.Name, level, dep, rep.Baseline.Cycles, rep.Reuse.Cycles, sha256.Sum256(js))
			}
		}
	}
	checkGolden(t, "report.golden", []byte(sb.String()))
}
