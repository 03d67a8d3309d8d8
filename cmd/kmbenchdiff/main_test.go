package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func td(name string) string { return filepath.Join("testdata", name) }

// TestDiffPasses: an improved report (with an extra k=3 cell the old
// grid lacked) must pass the 10% gate and report the new cell without
// gating on it.
func TestDiffPasses(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td("old.json"), td("new_ok.json"), 10); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"ok: 2 cells compared", "(new cell)", "peak RSS",
		"build ", "build phases", "stream build",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestDiffFailsOnRegression: a 20% ns/read regression on one cell must
// make run return an error naming the cell.
func TestDiffFailsOnRegression(t *testing.T) {
	var out strings.Builder
	err := run(&out, td("old.json"), td("new_regressed.json"), 10)
	if err == nil {
		t.Fatalf("expected regression error, got nil\noutput:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "A()") {
		t.Errorf("output should flag the A() cell:\n%s", out.String())
	}
}

// TestDiffThresholdTunable: at -threshold 25 the same regressed report
// passes (the regression is 20%).
func TestDiffThresholdTunable(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td("old.json"), td("new_regressed.json"), 25); err != nil {
		t.Fatalf("run at threshold 25: %v\noutput:\n%s", err, out.String())
	}
}

// TestDiffRejectsBadInput pins the failure modes: missing file, wrong
// schema, empty results.
func TestDiffRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run(&out, td("nope.json"), td("new_ok.json"), 10); err == nil {
		t.Error("missing old file: want error")
	}
	if err := run(&out, td("old.json"), td("nope.json"), 10); err == nil {
		t.Error("missing new file: want error")
	}
}

// TestDiffExitCodes pins the exit-status contract the Makefile's
// benchdiff-smoke relies on: a regression exits 1, while a missing
// report is bad input and exits 2, so a lost fixture can never pass
// as a correctly rejected regression.
func TestDiffExitCodes(t *testing.T) {
	var out strings.Builder
	if got := exitCode(run(&out, td("old.json"), td("new_ok.json"), 10)); got != 0 {
		t.Errorf("clean diff: exit %d, want 0", got)
	}
	if got := exitCode(run(&out, td("old.json"), td("new_regressed.json"), 10)); got != 1 {
		t.Errorf("regression: exit %d, want 1", got)
	}
	if got := exitCode(run(&out, td("old.json"), td("nope.json"), 10)); got != 2 {
		t.Errorf("missing report: exit %d, want 2", got)
	}
}

// TestDiffFailsOnLocateRegression: a cell whose total ns/read held
// steady but whose locate phase doubled must still fail the gate.
func TestDiffFailsOnLocateRegression(t *testing.T) {
	var out strings.Builder
	err := run(&out, td("old.json"), td("new_locate_regressed.json"), 10)
	if err == nil {
		t.Fatalf("expected locate regression error, got nil\noutput:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "locate ns/read") || !strings.Contains(s, "A()") {
		t.Errorf("output should name the locate regression on A():\n%s", s)
	}
	if !strings.Contains(s, "peak RSS") {
		t.Errorf("summary line should carry the peak-RSS delta:\n%s", s)
	}
}

// TestDiffFailsOnBuildRegression: a report whose search cells held
// steady but whose index construction slowed 40% must fail the gate.
func TestDiffFailsOnBuildRegression(t *testing.T) {
	var out strings.Builder
	err := run(&out, td("old.json"), td("new_build_regressed.json"), 10)
	if err == nil {
		t.Fatalf("expected build regression error, got nil\noutput:\n%s", out.String())
	}
	s := out.String()
	if !strings.Contains(s, "REGRESSION") || !strings.Contains(s, "build:") {
		t.Errorf("output should flag the build regression:\n%s", s)
	}
}

// TestDiffFailsOnRSSRegression: search cells and build held steady but
// peak RSS grew 24% (+27 MB) — past the threshold AND the 1 MiB
// absolute floor, so the gate must fire.
func TestDiffFailsOnRSSRegression(t *testing.T) {
	var out strings.Builder
	err := run(&out, td("old.json"), td("new_rss_regressed.json"), 10)
	if err == nil {
		t.Fatalf("expected RSS regression error, got nil\noutput:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "peak RSS:") {
		t.Errorf("output should flag the peak-RSS regression:\n%s", out.String())
	}
}

// TestDiffRSSFloorSuppressesSmallAbsoluteGrowth: a large percentage on
// a tiny absolute RSS (500 KiB -> 800 KiB, +60% but under the 1 MiB
// floor) must not gate.
func TestDiffRSSFloorSuppressesSmallAbsoluteGrowth(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, rss int64) string {
		path := filepath.Join(dir, name)
		data := fmt.Sprintf(`{"schema":"kmbench/v1","scale":8,"reads":50,"seed":42,"peak_rss_bytes":%d,"results":[
			{"experiment":"search","method":"A()","k":2,"ns_per_read":300000,"matches":57}]}`, rss)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	if err := run(&out, mk("old.json", 512_000), mk("new.json", 819_200), 10); err != nil {
		t.Fatalf("RSS gate fired below the absolute floor: %v\noutput:\n%s", err, out.String())
	}
}

// TestDiffSkipsBuildGateWithoutOldValue: reports predating build_ns
// (old value 0) must not be gated on it.
func TestDiffSkipsBuildGateWithoutOldValue(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old_nobuild.json")
	data := `{"schema":"kmbench/v1","scale":8,"reads":50,"seed":42,"results":[
		{"experiment":"search","method":"A()","k":2,"ns_per_read":300000,"matches":57},
		{"experiment":"search","method":"BWT","k":2,"ns_per_read":240000,"matches":57}]}`
	if err := os.WriteFile(old, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, old, td("new_build_regressed.json"), 10); err != nil {
		t.Fatalf("build gate fired against a zero old value: %v\noutput:\n%s", err, out.String())
	}
}

// TestDiffSkipsLocateGateWithoutOldValue: reports predating
// locate_ns_per_read (old value 0) must not be gated on it, however
// large the new value looks.
func TestDiffSkipsLocateGateWithoutOldValue(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old_nolocate.json")
	data := `{"schema":"kmbench/v1","scale":8,"reads":50,"seed":42,"results":[
		{"experiment":"search","method":"A()","k":2,"ns_per_read":300000,"matches":57},
		{"experiment":"search","method":"BWT","k":2,"ns_per_read":240000,"matches":57}]}`
	if err := os.WriteFile(old, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, old, td("new_locate_regressed.json"), 10); err != nil {
		t.Fatalf("locate gate fired against a zero old value: %v\noutput:\n%s", err, out.String())
	}
}
