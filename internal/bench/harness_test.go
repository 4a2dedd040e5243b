package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestHarnessRendersAllExperiments drives every table and figure generator
// at a heavily reduced workload scale, checks structural invariants of the
// output and compares it byte for byte with testdata/harness/<name>.golden
// (rewritten with -update). This is the integration test of the whole
// evaluation path; cmd/crcbench runs the same code at full scale. The conc
// sweep measures wall-clock throughput, so its output has no golden.
func TestHarnessRendersAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness is slow")
	}
	r := NewRunner()
	r.Scale = 16
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, r); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out := buf.String()
			if len(out) < 80 {
				t.Fatalf("%s output suspiciously short:\n%s", e.Name, out)
			}
			// Every program-oriented experiment must mention the suite.
			if strings.HasPrefix(e.Name, "table") {
				for _, prog := range []string{"G721_encode", "UNEPIC"} {
					if !strings.Contains(out, prog) {
						t.Fatalf("%s output missing %s:\n%s", e.Name, prog, out)
					}
				}
			}
			if e.Name != "conc" {
				checkGolden(t, "harness/"+e.Name+".golden", buf.Bytes())
			}
		})
	}
}

func TestHarmonicMean(t *testing.T) {
	hm := HarmonicMean([]float64{1, 2, 4})
	// 3 / (1 + 0.5 + 0.25) = 1.7142857...
	if hm < 1.714 || hm > 1.715 {
		t.Fatalf("hm = %v", hm)
	}
	if HarmonicMean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Fatal("non-positive values must yield 0")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int]string{
		100:     "100B",
		2048:    "2KB",
		1 << 20: "1.00MB",
		4688000: "4.47MB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRunnerScalesArgs(t *testing.T) {
	r := NewRunner()
	r.Scale = 4
	got := r.scaleArgs([]int64{7, 16000})
	if got[0] != 7 || got[1] != 4000 {
		t.Fatalf("scaled args: %v", got)
	}
	// The seed is never scaled; tiny workloads clamp at 1.
	got = r.scaleArgs([]int64{7, 2})
	if got[1] != 1 {
		t.Fatalf("clamp: %v", got)
	}
}

func TestSuitePrograms(t *testing.T) {
	if len(All()) != 11 || len(Core()) != 7 {
		t.Fatalf("suite sizes: %d / %d", len(All()), len(Core()))
	}
	seen := map[string]bool{}
	for _, p := range All() {
		if seen[p.Name] {
			t.Fatalf("duplicate program %s", p.Name)
		}
		seen[p.Name] = true
		if len(p.TrainArgs) != 2 || len(p.AltArgs) != 2 {
			t.Fatalf("%s: args must be (seed, size)", p.Name)
		}
		if p.KernelFunc == "" {
			t.Fatalf("%s: missing kernel annotation", p.Name)
		}
	}
	if _, err := ByName("G721_encode"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

// TestPaperShapeInvariants encodes the headline qualitative claims of the
// paper's evaluation as assertions over a reduced-scale run.
func TestPaperShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner()
	r.Scale = 8
	speedup := map[string]float64{}
	for _, p := range Core() {
		rep, err := r.Report(p.Name, "O0")
		if err != nil {
			t.Fatal(err)
		}
		speedup[p.Name] = rep.Speedup()
		if rep.Baseline.Ret != rep.Reuse.Ret {
			t.Fatalf("%s: semantics broken", p.Name)
		}
	}
	// Every program profits.
	for name, s := range speedup {
		if s < 1.0 {
			t.Errorf("%s: speedup %.3f < 1", name, s)
		}
	}
	// UNEPIC is among the top winners (at full scale it is the largest;
	// reduced workloads shrink its distinct-input advantage), and
	// MPEG2_encode is the smallest, as in the paper.
	better := 0
	for name, s := range speedup {
		if name != "UNEPIC" && s > speedup["UNEPIC"] {
			better++
		}
		if name != "MPEG2_encode" && s < speedup["MPEG2_encode"] {
			t.Errorf("%s (%.2f) below MPEG2_encode (%.2f)", name, s, speedup["MPEG2_encode"])
		}
	}
	if better > 1 {
		t.Errorf("UNEPIC (%.2f) should rank in the top two: %v", speedup["UNEPIC"], speedup)
	}
	// GNU Go transforms exactly the paper's 8 merged segments.
	rep, err := r.Report("GNUGO", "O0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsTransformed != 8 {
		t.Errorf("GNUGO transformed %d segments, want 8", rep.SegmentsTransformed)
	}
	if len(rep.Tables) != 1 {
		t.Errorf("GNUGO tables = %d, want 1 merged", len(rep.Tables))
	}
}
