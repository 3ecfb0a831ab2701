// Package durable publishes small files crash-safely. WriteFile is the
// one temp → fsync → rename → dir-fsync sequence behind the monitor's
// checkpoint (UCKP) and STH (USTH) stores and the index's segment
// (USEG) commits: at any kill point the destination holds either its
// previous complete contents or the new ones, never a torn mix.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile durably replaces path with data. The bytes land in a
// sibling temp file named <base>.tmp* (callers that sweep crash
// leftovers match on that prefix), which is fsynced, closed, and
// renamed over path; the directory is then fsynced so the rename
// itself survives a crash. The directory fsync is best-effort, for
// filesystems that reject it. Errors are the underlying *os.PathError
// or *os.LinkError, which name the failing step and file.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
