package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/workload"
)

func TestRunGeneratesProblemAndTrace(t *testing.T) {
	dir := t.TempDir()
	problem := filepath.Join(dir, "p.json")
	trace := filepath.Join(dir, "t.csv")
	err := run([]string{
		"-requests", "20", "-vnfs", "8", "-nodes", "5",
		"-out", problem, "-trace", trace, "-horizon", "1.5",
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(problem)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	p, err := model.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Requests) != 20 || len(p.VNFs) != 8 || len(p.Nodes) != 5 {
		t.Errorf("sizes: %d/%d/%d", len(p.Requests), len(p.VNFs), len(p.Nodes))
	}

	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tf.Close() }()
	ts, err := workload.NewTraceStream(tf)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, _, ok := ts.NextArrival(); ok; _, _, ok = ts.NextArrival() {
		rows++
	}
	if err := ts.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Error("empty trace")
	}
}

func TestRunLogNormalMode(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-requests", "5", "-out", filepath.Join(dir, "p.json"),
		"-trace", filepath.Join(dir, "t.csv"), "-horizon", "0.5", "-dist", "lognormal",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"bad flag":          {"-bogus"},
		"bad dist":          {"-trace", filepath.Join(t.TempDir(), "t.csv"), "-dist", "weibull"},
		"bad config":        {"-requests", "-5"},
		"vnfs over catalog": {"-vnfs", "99"},
		"unwritable out":    {"-out", filepath.Join(t.TempDir(), "no", "such", "dir", "p.json")},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRunStdout(t *testing.T) {
	// No -out writes JSON to stdout; just confirm it succeeds.
	if err := run([]string{"-requests", "3", "-vnfs", "6"}); err != nil {
		t.Fatal(err)
	}
	_ = strings.TrimSpace // keep strings import honest if assertions grow
}

func TestRunAnalyze(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.csv")
	if err := run([]string{"-requests", "3", "-vnfs", "6", "-rate-min", "40", "-rate-max", "60",
		"-out", filepath.Join(dir, "p.json"), "-trace", trace, "-horizon", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-analyze", trace}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-analyze", filepath.Join(dir, "missing.csv")}); err == nil {
		t.Error("missing trace accepted")
	}
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-analyze", bad}); err == nil {
		t.Error("malformed trace accepted")
	}
}
