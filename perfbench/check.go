package main

import (
	"errors"
	"fmt"
	"math"

	"plinius/internal/darknet"
)

// errWrong marks an output that failed a correctness check.
var errWrong = errors.New("wrong output")

// params copies every parameter buffer of net, in layer order.
func params(net *darknet.Network) [][]float32 {
	var out [][]float32
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			out = append(out, append([]float32(nil), p...))
		}
	}
	return out
}

// copyParams copies net's parameters into dst, which must have the
// layout params(net) returns; it reuses dst's buffers.
func copyParams(dst [][]float32, net *darknet.Network) {
	i := 0
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			copy(dst[i], p)
			i++
		}
	}
}

// sameParams checks that net holds exactly the parameters want, bit
// for bit: a recovered model must be the model that was saved.
func sameParams(want [][]float32, net *darknet.Network) error {
	i := 0
	for li, l := range net.Layers {
		for bi, p := range l.Params() {
			if i >= len(want) {
				return fmt.Errorf("%w: model has more parameter buffers than the saved one (%d)", errWrong, len(want))
			}
			w := want[i]
			if len(p) != len(w) {
				return fmt.Errorf("%w: layer %d buffer %d has %d values, saved %d", errWrong, li, bi, len(p), len(w))
			}
			for j := range p {
				if math.Float32bits(p[j]) != math.Float32bits(w[j]) {
					return fmt.Errorf("%w: layer %d buffer %d value %d is %v, saved %v", errWrong, li, bi, j, p[j], w[j])
				}
			}
			i++
		}
	}
	if i != len(want) {
		return fmt.Errorf("%w: model has %d parameter buffers, saved %d", errWrong, i, len(want))
	}
	return nil
}

// lossFell checks a training run's losses: the final one is finite
// and below the first iteration's.
func lossFell(first, last float32) error {
	f, l := float64(first), float64(last)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		return fmt.Errorf("%w: final loss %v is not finite", errWrong, last)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || !(l < f) {
		return fmt.Errorf("%w: final loss %v is not below the first iteration's %v", errWrong, last, first)
	}
	return nil
}

// samePredictions checks served classes against the reference
// classes computed by the framework's own ClassifyBatch.
func samePredictions(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d predictions for %d images", errWrong, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: image %d classified %d, reference %d", errWrong, i, got[i], want[i])
		}
	}
	return nil
}
