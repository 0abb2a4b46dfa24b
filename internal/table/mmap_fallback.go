package table

import (
	"fmt"
	"io"
	"os"
)

// readFileFallback loads a store file fully into memory: the mapFile
// implementation for platforms without unix mmap, and the seam that lets
// every platform's tests exercise that path. The store still decodes
// lazily per block; it just loses the skip-avoids-page-faults property.
func readFileFallback(path string) ([]byte, io.Closer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("table: reading store: %w", err)
	}
	return data, nopCloser{}, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// openStoreFallback is OpenStore through the read-into-memory path,
// regardless of platform. Tests use it to cover the !unix build's
// behaviour from unix CI runners.
func openStoreFallback(path string) (*Table, io.Closer, error) {
	return openStore(path, readFileFallback, false)
}
