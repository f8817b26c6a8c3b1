package obs

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestCellPackagesDoNotImportObs keeps the process-wide recording out
// of cell code: the packages a cell's simulation runs in must not reach
// internal/obs, directly or through another module package. They count
// on the engine they hold, and the harness folds those counts in.
func TestCellPackagesDoNotImportObs(t *testing.T) {
	const module = "perfiso/"
	const forbidden = module + "internal/obs"
	root := filepath.Join("..", "..")
	for _, name := range []string{"sim", "cpumodel", "core", "harvest", "indexserve", "cluster"} {
		start := module + "internal/" + name
		// Breadth-first over module imports; via records how each
		// package was reached, for the failure message.
		via := map[string]string{start: ""}
		queue := []string{start}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if !strings.HasPrefix(imp, module) {
					continue
				}
				if _, ok := via[imp]; ok {
					continue
				}
				via[imp] = path
				if imp == forbidden {
					chain := imp
					for p := path; p != ""; p = via[p] {
						chain = p + " -> " + chain
					}
					t.Fatalf("cell package imports %s: %s", forbidden, chain)
				}
				queue = append(queue, imp)
			}
		}
	}
}
