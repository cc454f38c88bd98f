//go:build race

package superfast_test

// raceDetector reports that the tests were built with -race. sync.Pool then
// drops items at random, so the device's submit scratch costs a heap object
// per submit that an ordinary build does not pay.
const raceDetector = true
