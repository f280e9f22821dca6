package bnn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/tensor"
)

// Model serialization: a compact little-endian binary format so trained
// or synthesized models can be stored, shipped to the compiler, or
// loaded by the CLI tools. Binary weight matrices are written as their
// packed 64-bit words (64× smaller than float32 weights — the paper's
// §II-B storage advantage, made concrete).
//
// Format (version 1):
//
//	magic "EBNN" | u32 version | str name | shape | u32 classes |
//	u32 layerCount | layers…
//
// where str is u32 length + bytes, shape is u32 rank + u32 dims, and
// each layer starts with a u8 kind tag.

const (
	magic   = "EBNN"
	version = 1
)

// Layer kind tags.
const (
	tagDenseFP = iota + 1
	tagConvFP
	tagBinaryDense
	tagBinaryConv
	tagSign
	tagMaxPool
	tagFlatten
)

// WriteModel serializes m to w.
func WriteModel(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	e := &encoder{w: bw}
	e.bytes([]byte(magic))
	e.u32(version)
	e.str(m.ModelName)
	e.shape(m.InputShape)
	e.u32(uint32(m.Classes))
	e.u32(uint32(len(m.Layers)))
	for _, l := range m.Layers {
		if e.err != nil {
			break
		}
		e.layer(l)
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// ReadModel deserializes a model written by WriteModel.
func ReadModel(r io.Reader) (*Model, error) {
	d := &decoder{r: bufio.NewReader(r)}
	if got := string(d.bytes(4)); d.err == nil && got != magic {
		return nil, fmt.Errorf("bnn: bad magic %q", got)
	}
	if v := d.u32(); d.err == nil && v != version {
		return nil, fmt.Errorf("bnn: unsupported version %d", v)
	}
	m := &Model{}
	m.ModelName = d.str()
	m.InputShape = d.shape()
	m.Classes = int(d.u32())
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("bnn: implausible layer count %d", n)
	}
	for i := 0; i < int(n); i++ {
		l, err := d.layer()
		if err != nil {
			return nil, fmt.Errorf("bnn: layer %d: %w", i, err)
		}
		m.Layers = append(m.Layers, l)
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, m.Validate()
}

// --- encoder ------------------------------------------------------------

type encoder struct {
	w   io.Writer
	err error
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) u8(v uint8) { e.bytes([]byte{v}) }
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.bytes(b[:])
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.bytes(b[:])
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

func (e *encoder) shape(s []int) {
	e.u32(uint32(len(s)))
	for _, d := range s {
		e.u32(uint32(d))
	}
}

func (e *encoder) floats(xs []float64) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.f64(x)
	}
}

func (e *encoder) ints(xs []int) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.u64(uint64(int64(x)))
	}
}

func (e *encoder) bits(m *bitops.Matrix) {
	e.u32(uint32(m.Rows()))
	e.u32(uint32(m.Cols()))
	for r := 0; r < m.Rows(); r++ {
		for _, w := range m.Row(r).Words() {
			e.u64(w)
		}
	}
}

func (e *encoder) geom(g tensor.ConvGeom) {
	for _, v := range []int{g.InC, g.InH, g.InW, g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW} {
		e.u32(uint32(v))
	}
}

func (e *encoder) layer(l Layer) {
	switch t := l.(type) {
	case *DenseFP:
		e.u8(tagDenseFP)
		e.str(t.LayerName)
		e.u32(uint32(t.outDim()))
		e.u32(uint32(t.inDim()))
		e.floats(t.W.Data())
		e.floats(t.B)
		if t.ReLU {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case *ConvFP:
		e.u8(tagConvFP)
		e.str(t.LayerName)
		e.geom(t.Geom)
		e.u32(uint32(t.OutC))
		e.floats(t.K.Data())
		e.floats(t.B)
	case *BinaryDense:
		e.u8(tagBinaryDense)
		e.str(t.LayerName)
		e.bits(t.W)
		e.ints(t.Thresh)
	case *BinaryConv2D:
		e.u8(tagBinaryConv)
		e.str(t.LayerName)
		e.geom(t.Geom)
		e.u32(uint32(t.OutC))
		e.bits(t.K)
		e.ints(t.Thresh)
	case *Sign:
		e.u8(tagSign)
		e.str(t.LayerName)
	case *MaxPool2D:
		e.u8(tagMaxPool)
		e.str(t.LayerName)
		e.u32(uint32(t.Size))
	case *Flatten:
		e.u8(tagFlatten)
		e.str(t.LayerName)
	default:
		e.err = fmt.Errorf("bnn: cannot serialize layer type %T", l)
	}
}

// --- decoder ------------------------------------------------------------

type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	_, d.err = io.ReadFull(d.r, b)
	return b
}

func (d *decoder) u8() uint8 {
	b := d.bytes(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || n > 1<<20 {
		if d.err == nil {
			d.err = fmt.Errorf("bnn: implausible string length %d", n)
		}
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *decoder) shape() []int {
	n := d.u32()
	if d.err != nil || n > 8 {
		if d.err == nil {
			d.err = fmt.Errorf("bnn: implausible shape rank %d", n)
		}
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = int(d.u32())
	}
	return s
}

func (d *decoder) floats() []float64 {
	n := d.u32()
	if d.err != nil || n > 1<<28 {
		if d.err == nil {
			d.err = fmt.Errorf("bnn: implausible float count %d", n)
		}
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.f64()
	}
	return xs
}

func (d *decoder) ints() []int {
	n := d.u32()
	if d.err != nil || n > 1<<24 {
		if d.err == nil {
			d.err = fmt.Errorf("bnn: implausible int count %d", n)
		}
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(int64(d.u64()))
	}
	return xs
}

func (d *decoder) bits() *bitops.Matrix {
	rows, cols := int(d.u32()), int(d.u32())
	if d.err != nil {
		return nil
	}
	// Bound each dimension before multiplying: two u32s can overflow
	// even int64 and sneak a negative product past an area-only check
	// (found by FuzzSerializeRoundTrip).
	if rows < 0 || cols < 0 || rows > 1<<24 || cols > 1<<24 || int64(rows)*int64(cols) > 1<<32 {
		d.err = fmt.Errorf("bnn: implausible bit matrix %dx%d", rows, cols)
		return nil
	}
	m := bitops.NewMatrix(rows, cols)
	wordsPerRow := (cols + 63) / 64
	for r := 0; r < rows; r++ {
		for wi := 0; wi < wordsPerRow; wi++ {
			w := d.u64()
			for b := 0; b < 64; b++ {
				c := wi*64 + b
				if c < cols && w>>uint(b)&1 == 1 {
					m.Set(r, c, true)
				}
			}
		}
	}
	return m
}

func (d *decoder) geom() tensor.ConvGeom {
	var g tensor.ConvGeom
	for _, dst := range []*int{&g.InC, &g.InH, &g.InW, &g.KH, &g.KW, &g.StrideH, &g.StrideW, &g.PadH, &g.PadW} {
		*dst = int(d.u32())
	}
	return g
}

func (d *decoder) layer() (Layer, error) {
	tag := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	switch tag {
	case tagDenseFP:
		name := d.str()
		out, in := int(d.u32()), int(d.u32())
		data := d.floats()
		b := d.floats()
		relu := d.u8() == 1
		if d.err != nil {
			return nil, d.err
		}
		if len(data) != out*in || len(b) != out {
			return nil, fmt.Errorf("dense %q: inconsistent sizes", name)
		}
		return &DenseFP{LayerName: name, W: tensor.FromSlice(data, out, in), B: b, ReLU: relu}, nil
	case tagConvFP:
		name := d.str()
		g := d.geom()
		outC := int(d.u32())
		data := d.floats()
		b := d.floats()
		if d.err != nil {
			return nil, d.err
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		if len(data) != outC*g.PatchLen() || len(b) != outC {
			return nil, fmt.Errorf("conv %q: inconsistent sizes", name)
		}
		return &ConvFP{LayerName: name, Geom: g, OutC: outC, K: tensor.FromSlice(data, outC, g.PatchLen()), B: b}, nil
	case tagBinaryDense:
		name := d.str()
		w := d.bits()
		th := d.ints()
		if d.err != nil {
			return nil, d.err
		}
		if len(th) != w.Rows() {
			return nil, fmt.Errorf("binary dense %q: %d thresholds for %d rows", name, len(th), w.Rows())
		}
		return &BinaryDense{LayerName: name, W: w, Thresh: th}, nil
	case tagBinaryConv:
		name := d.str()
		g := d.geom()
		outC := int(d.u32())
		k := d.bits()
		th := d.ints()
		if d.err != nil {
			return nil, d.err
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		if k.Rows() != outC || k.Cols() != g.PatchLen() || len(th) != outC {
			return nil, fmt.Errorf("binary conv %q: inconsistent sizes", name)
		}
		return &BinaryConv2D{LayerName: name, Geom: g, OutC: outC, K: k, Thresh: th}, nil
	case tagSign:
		return &Sign{LayerName: d.str()}, d.err
	case tagMaxPool:
		name := d.str()
		size := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if size < 1 {
			return nil, fmt.Errorf("pool %q: bad size %d", name, size)
		}
		return &MaxPool2D{LayerName: name, Size: size}, nil
	case tagFlatten:
		return &Flatten{LayerName: d.str()}, d.err
	default:
		return nil, fmt.Errorf("unknown layer tag %d", tag)
	}
}
