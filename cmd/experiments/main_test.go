package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJobsValidation(t *testing.T) {
	for _, bad := range []string{"0", "-1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-j", bad}, &out, &errb); code != 2 {
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
		if code := run([]string{"-q", "-requests", bad}, &out, &errb); code != 2 {
			t.Errorf("-requests %s: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errb.String(), "-requests must be >= 1") {
			t.Errorf("-requests %s: stderr %q lacks validation message", bad, errb.String())
		}
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
}
