package coo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The FROSTT .tns text format: one nonzero per line, whitespace-separated,
// 1-based coordinates followed by the value. Lines starting with '#' and
// blank lines are ignored. Mode extents are not part of the format; ReadTNS
// infers each extent as the maximum coordinate seen (callers may widen Dims
// afterwards).

// WriteTNS writes the tensor in .tns format, with a header comment recording
// the dims so ReadTNS on our own output restores exact extents.
func WriteTNS(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# dims:")
	for _, d := range t.Dims {
		fmt.Fprintf(bw, " %d", d)
	}
	fmt.Fprintln(bw)
	var sb strings.Builder
	for i := range t.Vals {
		sb.Reset()
		for m := range t.Coords {
			sb.WriteString(strconv.FormatUint(t.Coords[m][i]+1, 10))
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatFloat(t.Vals[i], 'g', -1, 64))
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTNS parses a .tns stream. The tensor order is taken from the first
// data line; extents come from a "# dims:" header when present, otherwise
// from the maximum coordinate per mode.
func ReadTNS(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var t *Tensor
	var headerDims []uint64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# dims:"); ok {
				for _, f := range strings.Fields(rest) {
					d, err := strconv.ParseUint(f, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("coo: line %d: bad dims header: %v", lineNo, err)
					}
					headerDims = append(headerDims, d)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("coo: line %d: want at least one coordinate and a value, got %q", lineNo, line)
		}
		order := len(fields) - 1
		if t == nil {
			t = New(make([]uint64, order), 1024)
		} else if t.Order() != order {
			return nil, fmt.Errorf("coo: line %d: order %d differs from first line's %d", lineNo, order, t.Order())
		}
		for m := 0; m < order; m++ {
			c, err := strconv.ParseUint(fields[m], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("coo: line %d: bad coordinate %q: %v", lineNo, fields[m], err)
			}
			if c == 0 {
				return nil, fmt.Errorf("coo: line %d: coordinate 0 (format is 1-based)", lineNo)
			}
			t.Coords[m] = append(t.Coords[m], c-1)
			if c > t.Dims[m] {
				t.Dims[m] = c
			}
		}
		v, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("coo: line %d: bad value %q: %v", lineNo, fields[order], err)
		}
		if math.IsNaN(v) {
			// ParseFloat accepts "NaN", but a tensor may not hold one (Validate).
			return nil, fmt.Errorf("coo: line %d: value is NaN", lineNo)
		}
		t.Vals = append(t.Vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("coo: reading tns: %w", err)
	}
	if t == nil {
		if headerDims != nil {
			return New(headerDims, 0), nil
		}
		return nil, fmt.Errorf("coo: empty tns input")
	}
	if headerDims != nil {
		if len(headerDims) != t.Order() {
			return nil, fmt.Errorf("coo: dims header has %d modes, data has %d", len(headerDims), t.Order())
		}
		for m, d := range headerDims {
			if t.Dims[m] > d {
				return nil, fmt.Errorf("coo: mode %d coordinate %d exceeds declared extent %d", m, t.Dims[m], d)
			}
			t.Dims[m] = d
		}
	}
	return t, nil
}
