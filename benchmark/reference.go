package main

import (
	"crypto/aes"
	"crypto/cipher"
	"runtime"
	"time"
)

// The hosts this benchmark runs on change speed by tens of percent over
// seconds to minutes as other tenants load them, and such shifts slow a
// fixed standard-library kernel as much as they slow the simulator. Host
// times are therefore reported in calibrated seconds: each cell's set-up and
// run times are scaled by refNominal over the reference kernel's duration,
// timed on a clean heap right before and right after the cell. The kernel
// shares the simulator's host profile (sealing 4 KiB pages with AES-GCM,
// updating a large map, allocating short-lived pointers, chasing pointers
// through memory no cache holds) but none of its code, so no change to the
// repository can move it. On a shared 2-vCPU VM, calibrating cut the spread
// (interquartile range over median) of sim_req_per_s across ten runs from
// 15-27% to 3-7%.

// refNominal is the reference kernel's typical duration on the machine the
// bounds were calibrated on (a 2-vCPU Intel Xeon VM): one calibrated second
// is one second of that machine at its usual speed.
const refNominal = 75 * time.Millisecond

var refSink uint64 // keeps the kernel's results live

// refChase is one random cycle through 32 MiB of indexes, built once,
// outside any timing. Walking it misses the caches at nearly every step.
var refChase []uint32

// randomCycle returns a permutation of [0, n) that is a single cycle
// (Sattolo's algorithm over a fixed LCG).
func randomCycle(n int) []uint32 {
	c := make([]uint32, n)
	for i := range c {
		c[i] = uint32(i)
	}
	x := uint64(7)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return c
}

type refNode struct {
	next *refNode
	v    uint64
}

// calibrate collects the previous cell's garbage and times the reference
// kernel on the clean heap.
func calibrate() time.Duration {
	if refChase == nil {
		refChase = randomCycle(1 << 23)
	}
	runtime.GC()
	start := time.Now()
	blk, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		panic(err)
	}
	page := make([]byte, 4096)
	nonce := make([]byte, gcm.NonceSize())
	sealed := make([]byte, 0, len(page)+gcm.Overhead())
	for i := 0; i < 2000; i++ {
		nonce[0], nonce[1] = byte(i), byte(i>>8)
		sealed = gcm.Seal(sealed[:0], nonce, page, nil)
	}
	m := make(map[uint64]uint64)
	x := uint64(1)
	var head *refNode
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>40] += uint64(i)
		head = &refNode{next: head, v: x}
		if i%64 == 0 {
			head = nil
		}
	}
	p := uint32(0)
	for i := 0; i < 200_000; i++ {
		p = refChase[p]
	}
	refSink += uint64(len(m)) + uint64(sealed[0]) + uint64(p)
	return time.Since(start)
}

// calibrated scales a host duration measured between two reference timings
// to calibrated seconds.
func calibrated(d, refBefore, refAfter time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*refNominal) / float64(refBefore+refAfter))
}
