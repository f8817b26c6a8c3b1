package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// artifactFiles are the per-cell CSV artifacts checked against the
// oracle. Every row of each starts with experiment,cell; names never
// contain commas, so a plain split finds them.
var artifactFiles = []string{"cells.csv", "series.csv", "forensics.csv"}

// rowSet holds a run's artifact rows grouped by file and cell: the key
// is "file|experiment,cell" and the value is that cell's rows in file
// order.
type rowSet map[string]string

// loadRows reads the artifact rows of the given experiments from dir.
func loadRows(dir string, exps map[string]bool) (rowSet, error) {
	rows := rowSet{}
	for _, name := range artifactFiles {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		lines := strings.Split(string(data), "\n")
		for _, line := range lines[1:] { // lines[0] is the header
			if line == "" {
				continue
			}
			exp, rest, _ := strings.Cut(line, ",")
			if !exps[exp] {
				continue
			}
			cell, _, ok := strings.Cut(rest, ",")
			if !ok {
				return nil, fmt.Errorf("%s: malformed row %q", filepath.Join(dir, name), line)
			}
			rows[name+"|"+exp+","+cell] += line + "\n"
		}
	}
	return rows, nil
}

// mismatchedCells lists, sorted, the experiment,cell names whose rows
// in any artifact differ between got and want, including cells present
// on one side only.
func mismatchedCells(got, want rowSet) []string {
	bad := map[string]bool{}
	for k, v := range got {
		if want[k] != v {
			bad[cellOf(k)] = true
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			bad[cellOf(k)] = true
		}
	}
	out := make([]string, 0, len(bad))
	for c := range bad {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func cellOf(key string) string {
	_, cell, _ := strings.Cut(key, "|")
	return cell
}
