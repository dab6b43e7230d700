package main

import (
	"strings"
	"testing"
)

func TestParseExps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    []string // the experiments selected
		wantErr string   // substring of the error, "" = success
	}{
		{name: "all", spec: "all", want: allExps},
		{name: "list", spec: "baseline, edgecut,baseline", want: []string{"baseline", "edgecut"}},
		{name: "typo", spec: "baseline,serv", wantErr: `"serv"`},
		{name: "deleted", spec: "baseline,serve", wantErr: `"serve"`},
		{name: "empty", spec: "", wantErr: `""`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExps(tc.spec)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseExps(%q) = %v, want an error", tc.spec, got)
				}
				if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "options: all datasets") {
					t.Fatalf("error %q should name %s and list the valid experiments", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Errorf("selected %v, want %v", got, tc.want)
			}
			for _, name := range tc.want {
				if !got[name] {
					t.Errorf("%q not selected", name)
				}
			}
		})
	}
}
