//go:build race

package exec

// raceDetectorEnabled reports whether this test binary was built with
// -race. The detector makes sync.Pool drop a share of its puts and moves
// stack buffers to the heap, so allocation ceilings do not hold under it.
const raceDetectorEnabled = true
