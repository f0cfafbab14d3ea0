package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -run name must fail, not run nothing and exit 0: a typo in a
// CI step or a doc would otherwise pass silently.
func TestUnknownRunNameFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig99", "-quick"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed to stdout: %q", stdout.String())
	}
	var list bytes.Buffer
	printList(&list)
	if !strings.Contains(stderr.String(), `"fig99"`) || !strings.HasSuffix(stderr.String(), list.String()) {
		t.Errorf("stderr does not name fig99 and list the experiments:\n%s", stderr.String())
	}
}

func TestRunOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "datasets", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "\n## "); got != 1 {
		t.Errorf("ran %d experiments, want 1:\n%s", got, stdout.String())
	}
}
