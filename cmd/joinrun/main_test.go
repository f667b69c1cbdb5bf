package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildJoinrun compiles the command once per test binary into a temp dir.
func buildJoinrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "joinrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeCSV drops a two-column CSV joining with itself on the shared column.
func writeCSV(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "edges.csv")
	var b strings.Builder
	for i := 0; i < 30; i++ {
		b.WriteString(strings.Join([]string{
			string(rune('a' + i%5)), string(rune('a' + i%7)),
		}, ","))
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJoinrunCountMatchesAcrossBackends drives the built binary end to end
// and checks that both storage engines and every strategy agree on the
// result count.
func TestJoinrunCountMatchesAcrossBackends(t *testing.T) {
	bin := buildJoinrun(t)
	csv := writeCSV(t, t.TempDir())
	spec := []string{"R:src,mid=" + csv, "S:mid,dst=" + csv}
	count := func(args ...string) string {
		cmd := exec.Command(bin, append(append([]string{"-m", "64", "-b", "8", "-count"}, args...), spec...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "results: ") {
				return line
			}
		}
		t.Fatalf("no results line:\n%s", out)
		return ""
	}
	want := count("-backend", "sim")
	for _, args := range [][]string{
		{"-backend", "file"},
		{"-backend", "file", "-strategy", "greedy"},
		{"-backend", "sim", "-strategy", "first"},
	} {
		if got := count(args...); got != want {
			t.Errorf("%v: %q, sim %q", args, got, want)
		}
	}
}
