package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInput checks that a bad scale factor or table name is
// a one-line usage error with exit status 2 and writes no file.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-sf", "0"},
		{"-sf", "-1"},
		{"-sf", "NaN"},
		{"-sf", "0.001", "lineitme"},
		{"-sf", "0.001", "region", "lineitme"},
	} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-o", dir}, args...), &stdout, &stderr)
		if code != 2 {
			t.Errorf("dbgen %v: exit %d, want 2", args, code)
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "dbgen: ") {
			t.Errorf("dbgen %v: stderr %q, want one line", args, msg)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("dbgen %v wrote %d files", args, len(files))
		}
	}
}

func TestRunWritesNamedTables(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sf", "0.001", "-o", dir, "region", "nation"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "region.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 5 {
		t.Errorf("region.tbl has %d lines, want 5", lines)
	}
	if files, _ := os.ReadDir(dir); len(files) != 2 {
		t.Errorf("wrote %d files, want 2", len(files))
	}
}
