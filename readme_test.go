package recordroute

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestREADMENamesWhatExists holds README to the tree: the commands and
// examples it tells a reader to run exist, every one that exists is
// named, and its architecture table lists exactly the internal packages
// (and the cmd/ and examples/ directories) there are.
func TestREADMENamesWhatExists(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)

	t.Run("tools", func(t *testing.T) {
		mentioned := map[string]bool{}
		for _, m := range regexp.MustCompile(`\./((?:cmd|examples)/[A-Za-z0-9_-]+)`).FindAllStringSubmatch(readme, -1) {
			mentioned[m[1]] = true
		}
		for path := range mentioned {
			if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
				t.Errorf("README runs ./%s, which is not a directory", path)
			}
		}
		for _, parent := range []string{"cmd", "examples"} {
			for _, d := range subdirs(t, parent) {
				if !mentioned[parent+"/"+d] {
					t.Errorf("README never mentions ./%s/%s", parent, d)
				}
			}
		}
	})

	t.Run("packages", func(t *testing.T) {
		var internal []string
		for _, m := range regexp.MustCompile(`(?m)^internal/([a-z0-9]+)\s`).FindAllStringSubmatch(readme, -1) {
			internal = append(internal, m[1])
		}
		slices.Sort(internal)
		if want := subdirs(t, "internal"); !slices.Equal(internal, want) {
			t.Errorf("README's package table lists internal/%v, the tree has internal/%v", internal, want)
		}
		for _, parent := range []string{"cmd", "examples"} {
			m := regexp.MustCompile(`(?m)^` + parent + `/\{([^}]*)\}`).FindStringSubmatch(readme)
			if m == nil {
				t.Errorf("README's package table has no %s/{…} line", parent)
				continue
			}
			listed := strings.Split(m[1], ",")
			slices.Sort(listed)
			if want := subdirs(t, parent); !slices.Equal(listed, want) {
				t.Errorf("README's package table lists %s/%v, the tree has %s/%v", parent, listed, parent, want)
			}
		}
	})
}

// subdirs lists the directories directly under dir, sorted.
func subdirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}
