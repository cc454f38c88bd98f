//go:build !race

package superfast_test

const raceDetector = false
