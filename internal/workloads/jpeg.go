package workloads

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// JPEG models the libjpeg decode pipeline (§7.3): it streams over the
// compressed image block by block, operating in a small temporary buffer
// whose size is independent of the image ("the working set size depends on
// the buffer's size and not the image's"), then writes the decoded block to
// a (potentially huge) output buffer.
//
// The secret dependence mirrors the published attack on the inverse DCT:
// blocks whose coefficient rows are all zero skip the per-row update, so
// the number of temp-buffer pages touched per block leaks block content —
// counting page accesses reconstructs the image.
type JPEG struct {
	// BlocksW and BlocksH are the image dimensions in 8×8 blocks.
	BlocksW, BlocksH int
	// Busy is the secret: Busy[i] means block i has non-zero AC rows and
	// takes the full IDCT path.
	Busy []bool

	in   []mmu.VAddr // compressed input stream pages (sequential)
	tmp  []mmu.VAddr // temporary decode buffer (small, fixed)
	out  []mmu.VAddr // decoded output (proportional to image)
	comp uint64      // per-block compute cycles

	clock *sim.Clock
}

// JPEGConfig sizes the decoder.
type JPEGConfig struct {
	BlocksW, BlocksH int
	// BusyFraction of blocks take the full IDCT path (secret content).
	BusyFraction float64
	// TmpPages is the temporary working buffer (8 pages ≈ libjpeg's
	// coefficient and sample arrays for one MCU row).
	TmpPages int
	// OutPagesPerBlockRow controls output size (decoded rows).
	OutPagesPerBlockRow int
	Seed                uint64
}

// BuildJPEG allocates buffers from the heap and synthesizes the secret
// image deterministically from the seed. Decoding charges the process's
// kernel clock.
func BuildJPEG(p *libos.Process, cfg JPEGConfig) (*JPEG, error) {
	if cfg.TmpPages < 2 {
		return nil, fmt.Errorf("workloads: JPEG needs >=2 tmp pages")
	}
	n := cfg.BlocksW * cfg.BlocksH
	rng := sim.NewRand(cfg.Seed)
	busy := make([]bool, n)
	for i := range busy {
		busy[i] = rng.Float64() < cfg.BusyFraction
	}
	inPages := (n + 255) / 256 // ~16 B of entropy per block
	if inPages < 1 {
		inPages = 1
	}
	in, err := p.Alloc.AllocPages(inPages)
	if err != nil {
		return nil, err
	}
	tmp, err := p.Alloc.AllocPages(cfg.TmpPages)
	if err != nil {
		return nil, err
	}
	out, err := p.Alloc.AllocPages(cfg.OutPagesPerBlockRow * cfg.BlocksH)
	if err != nil {
		return nil, err
	}
	return &JPEG{
		BlocksW: cfg.BlocksW,
		BlocksH: cfg.BlocksH,
		Busy:    busy,
		in:      in,
		tmp:     tmp,
		out:     out,
		comp:    220, // IDCT arithmetic per block
		clock:   p.Kernel.Clock,
	}, nil
}

// TmpPages returns the temporary buffer pages (the attack's target set).
func (j *JPEG) TmpPages() []mmu.VAddr { return j.tmp }

// InPages returns the compressed input stream pages.
func (j *JPEG) InPages() []mmu.VAddr { return j.in }

// OutPages returns the decoded-output pages (candidates for OS management:
// "if the later pipeline stages access the image in a data-independent way
// ... then its buffer can be considered non-sensitive", §7.3).
func (j *JPEG) OutPages() []mmu.VAddr { return j.out }

// Decode runs the full decode. Per block: read the input stream page,
// touch the first tmp page (DC path); busy blocks additionally walk the
// remaining tmp pages (full IDCT); write the output page for the block row.
func (j *JPEG) Decode(ctx *core.Context) {
	outPerRow := len(j.out) / j.BlocksH
	for by := 0; by < j.BlocksH; by++ {
		for bx := 0; bx < j.BlocksW; bx++ {
			i := by*j.BlocksW + bx
			ctx.Load(j.in[(i/256)%len(j.in)])
			ctx.Load(j.tmp[0])
			if j.Busy[i] {
				for t := 1; t < len(j.tmp); t++ {
					ctx.Store(j.tmp[t])
				}
			} else {
				ctx.Store(j.tmp[1]) // shortcut path touches one page
			}
			j.clock.ChargeAmbient(j.comp)
			ctx.Store(j.out[by*outPerRow+(bx*outPerRow)/j.BlocksW])
		}
		ctx.Progress(1)
	}
}

// Invert applies a data-independent filter over the decoded image (the
// pipeline stage that justifies OS-managing the output buffer).
func (j *JPEG) Invert(ctx *core.Context) {
	for _, va := range j.out {
		ctx.Load(va)
		ctx.Store(va)
		j.clock.ChargeAmbient(64)
	}
	ctx.Progress(uint64(len(j.out)))
}

// Encode re-encodes the (filtered) image: sequential read of out, touching
// tmp, writing back over the input stream pages.
func (j *JPEG) Encode(ctx *core.Context) {
	outPerRow := len(j.out) / j.BlocksH
	for by := 0; by < j.BlocksH; by++ {
		for bx := 0; bx < j.BlocksW; bx++ {
			i := by*j.BlocksW + bx
			ctx.Load(j.out[by*outPerRow+(bx*outPerRow)/j.BlocksW])
			ctx.Store(j.tmp[0])
			if j.Busy[i] {
				for t := 1; t < len(j.tmp); t++ {
					ctx.Load(j.tmp[t])
				}
			}
			j.clock.ChargeAmbient(j.comp)
			ctx.Store(j.in[(i/256)%len(j.in)])
		}
		ctx.Progress(1)
	}
}
