package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJobsValidation(t *testing.T) {
	for _, bad := range []string{"0", "-3"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-j", bad, "-all"}, &out, &errb); code != 2 {
			t.Errorf("-j %s: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errb.String(), "jobs must be >= 1") {
			t.Errorf("-j %s: stderr %q lacks validation message", bad, errb.String())
		}
	}
}

func TestRequestsValidation(t *testing.T) {
	for _, bad := range []string{"0", "-1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-fn", "geo", "-emulate", "-requests", bad}, &out, &errb); code != 2 {
			t.Errorf("-requests %s: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errb.String(), "-requests must be >= 1") {
			t.Errorf("-requests %s: stderr %q lacks validation message", bad, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("-requests %s: printed %q before rejecting the flag", bad, out.String())
		}
	}
}

func TestListIgnoresJobs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list", "-j", "4"}, &out, &errb); code != 0 {
		t.Fatalf("-list -j 4: exit code %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fibonacci-go") {
		t.Errorf("-list output lacks fibonacci-go:\n%s", out.String())
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full experiment")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-fn", "fibonacci-go"}, &out, &errb); code != 0 {
		t.Fatalf("exit code %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cold") || !strings.Contains(out.String(), "warm") {
		t.Errorf("missing cold/warm rows:\n%s", out.String())
	}
}
