//go:build unix

package table

import (
	"os"
	"syscall"
	"testing"
)

// TestWriteStoreModeFollowsUmask: a store gets the mode os.Create would give
// it, so a process that keeps its files private (umask 077) keeps its tables
// and samples private too.
func TestWriteStoreModeFollowsUmask(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0)) // no test in this package runs in parallel
	dir := t.TempDir()
	for _, tc := range []struct {
		umask int
		want  os.FileMode
	}{{0o077, 0o600}, {0o022, 0o644}, {0o007, 0o660}} {
		syscall.Umask(tc.umask)
		fi, err := os.Stat(writeTestStore(t, dir, "t.store", BlockRows+3))
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != tc.want {
			t.Errorf("umask %04o: store mode %04o, want %04o", tc.umask, got, tc.want)
		}
	}
}
