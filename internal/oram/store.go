package oram

// Store is the block-access interface workloads program against: the
// cached ORAM (Autarky mode) and the direct uncached ORAM (vanilla-SGX
// CoSMIX mode) both implement it.
type Store interface {
	// Read copies the block's contents into buf.
	Read(id uint32, buf []byte) error
	// Write replaces the first len(data) bytes of the block.
	Write(id uint32, data []byte) error
}

var (
	_ Store = (*Cache)(nil)
	_ Store = (*Direct)(nil)
)

// Direct adapts a PathORAM as an uncached Store: every access runs the
// full ORAM protocol. Construct the PathORAM with Oblivious=true to model
// the vanilla-SGX deployment where the position map and stash must be
// scanned obliviously on every access.
type Direct struct {
	O *PathORAM
}

// Read implements Store.
func (d Direct) Read(id uint32, buf []byte) error {
	return d.O.Access(id, false, nil, buf)
}

// Write implements Store.
func (d Direct) Write(id uint32, data []byte) error {
	return d.O.Access(id, true, data, nil)
}
