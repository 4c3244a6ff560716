//go:build !unix

package store

import (
	"os"
	"path/filepath"
)

// lockDir on platforms without flock only creates the LOCK file; a
// second open of a live directory is not detected there.
func lockDir(path string) (*os.File, error) {
	return os.OpenFile(filepath.Join(path, lockName), os.O_CREATE|os.O_RDWR, 0o644)
}
