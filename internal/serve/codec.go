package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"
)

// The /infer wire codec. Nearly every body a client sends is the
// canonical {"input":[…]} that json.Marshal writes, and nearly every
// reply is one InferResponse, so both directions have a path written
// for this one schema; encoding/json stays the reference for everything
// else.

// bufPool recycles /infer body and reply buffers. A handler returns its
// body buffer before it waits for its batch, so the pool holds about
// one buffer per core rather than one per request in flight.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// decodeInfer decodes one whole /infer body into its input vector, with
// capacity n (the backend's input width). The schema scanner takes the
// canonical body; any other body falls through to encoding/json on the
// same bytes, so the accepted set and the error texts are exactly
// encoding/json's.
func decodeInfer(b []byte, n int) ([]float64, error) {
	if x, ok := scanInfer(b, n); ok {
		return x, nil
	}
	var req InferRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// The body is exactly one JSON value: only whitespace may follow.
		var extra json.RawMessage
		if err = dec.Decode(&extra); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return req.Input, err
}

// scanInfer recognises the canonical body
//
//	ws { ws "input" ws : ws [ ws number ( ws , ws number )* ws ] ws } ws EOF
//
// checks every number against the RFC 8259 grammar, and parses it with
// strconv.ParseFloat (as encoding/json does) into a slice of capacity
// n. ok is false for any other body — another key spelling or an
// escape, null, a duplicate or unknown key, trailing data — and for a
// number ParseFloat rejects as out of range.
func scanInfer(b []byte, n int) (x []float64, ok bool) {
	s := scanner{b: b}
	if !s.lit("{") || !s.lit(`"input"`) || !s.lit(":") || !s.lit("[") {
		return nil, false
	}
	x = make([]float64, 0, n)
	for {
		s.ws()
		start := s.i
		if !s.number() {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(b[start:s.i]), 64)
		if err != nil {
			return nil, false
		}
		x = append(x, v)
		if s.lit(",") {
			continue
		}
		if !s.lit("]") || !s.lit("}") {
			return nil, false
		}
		s.ws()
		return x, s.i == len(b)
	}
}

// scanner is a cursor over a body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit skips whitespace, then consumes lit if the body continues with it.
func (s *scanner) lit(lit string) bool {
	s.ws()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// number consumes one RFC 8259 number,
//
//	-? ( 0 | [1-9][0-9]* ) ( . [0-9]+ )? ( [eE] [+-]? [0-9]+ )?
//
// and reports whether there was one.
func (s *scanner) number() bool {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	s.i = i
	return true
}

// digits returns the end of the run of decimal digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// appendInferResponse appends r as json.Encoder writes it: the same
// field order and number text, then a newline. Like encoding/json it
// fails on a NaN or infinite float.
func appendInferResponse(b []byte, r *InferResponse) ([]byte, error) {
	if err := nonFinite(r.Logits...); err != nil {
		return nil, err
	}
	if err := nonFinite(r.QueueMs, r.LatencyMs); err != nil {
		return nil, err
	}
	b = append(b, `{"request_id":`...)
	b = strconv.AppendInt(b, r.RequestID, 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(r.Class), 10)
	b = append(b, `,"logits":`...)
	if r.Logits == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range r.Logits {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"batch_size":`...)
	b = strconv.AppendInt(b, int64(r.BatchSize), 10)
	b = append(b, `,"batch_seq":`...)
	b = strconv.AppendInt(b, r.BatchSeq, 10)
	b = append(b, `,"queue_ms":`...)
	b = appendFloat(b, r.QueueMs)
	b = append(b, `,"latency_ms":`...)
	b = appendFloat(b, r.LatencyMs)
	return append(b, "}\n"...), nil
}

// nonFinite returns encoding/json's error for the first NaN or infinite
// value in vs, or nil.
func nonFinite(vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("json: unsupported value: " + strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return nil
}

// appendFloat appends a finite f in encoding/json's format: 'f', or 'e'
// below 1e-6 and from 1e21 in magnitude, with a one-digit negative
// exponent written without its leading zero (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
