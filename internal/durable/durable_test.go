package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileFailedPublishLeavesNoTemp: when the final rename fails
// (here the destination is a directory), WriteFile reports the error
// and removes its temp file instead of leaking it into the directory.
func TestWriteFileFailedPublishLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("x")); err == nil {
		t.Fatal("publishing over a non-empty directory must error")
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}
