package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// cmdRef matches a ./cmd/<name> package path in scripts, workflows and
// docs.
var cmdRef = regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)

// TestReferencedCommandsExist: every ./cmd/<name> that the scripts, the CI
// workflows, the build-and-run notes (SKILL.md) and the docs invoke must
// be a directory holding a main package, so a clean checkout can run
// everything they describe.
func TestReferencedCommandsExist(t *testing.T) {
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case !d.IsDir() && (d.Name() == "SKILL.md" ||
			strings.HasPrefix(path, "scripts/") || strings.HasPrefix(path, ".github/workflows/")):
			files = append(files, path)
		}
		return nil
	})

	refs := map[string][]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllStringSubmatch(string(b), -1) {
			refs[m[1]] = append(refs[m[1]], f)
		}
	}
	if len(refs) == 0 {
		t.Fatal("found no ./cmd/ references; the scan is broken")
	}
	names := make([]string, 0, len(refs))
	for n := range refs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		if !isMainPackage(filepath.Join("cmd", n)) {
			slices.Sort(refs[n])
			t.Errorf("./cmd/%s (referenced from %s) is not a main package in the repository",
				n, strings.Join(slices.Compact(refs[n]), ", "))
		}
	}
}

// isMainPackage reports whether dir holds non-test Go files of package main.
func isMainPackage(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}
