package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"

	"mwsjoin/internal/geom"
)

// The on-disk dataset format is one rectangle per line in the paper's
// (x, y, l, b) notation, comma separated. Lines starting with '#' and
// blank lines are ignored. Inputs of parallelParseBytes or more are
// parsed in GOMAXPROCS chunks cut at line boundaries; the result and
// any error are those of a sequential parse.

// Write renders rectangles to w.
func Write(w io.Writer, rects []geom.Rect) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# x,y,l,b — start-point (top-left) and dimensions"); err != nil {
		return err
	}
	for _, r := range rects {
		if _, err := fmt.Fprintf(bw, "%s,%s,%s,%s\n",
			formatFloat(r.X), formatFloat(r.Y), formatFloat(r.L), formatFloat(r.B)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// maxLineBytes bounds a line's length, newline excluded: a line of this
// many bytes or more is rejected with bufio.ErrTooLong — the limit of
// the bufio.Scanner reader this one replaced.
const maxLineBytes = 1 << 20

// parallelParseBytes is the input size from which parsing is split
// across GOMAXPROCS goroutines; smaller inputs parse in one chunk.
const parallelParseBytes = 1 << 20

// Read parses rectangles from r, validating each.
func Read(r io.Reader) ([]geom.Rect, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

// parse parses a whole dataset image, in GOMAXPROCS chunks when it is
// large.
func parse(data []byte) ([]geom.Rect, error) {
	chunks := 1
	if len(data) >= parallelParseBytes {
		chunks = runtime.GOMAXPROCS(0)
	}
	return parseChunked(data, chunks)
}

// parseChunked parses a dataset image cut at newline boundaries into
// the given number of chunks, parsed concurrently. Lines are scanned as
// bytes with no per-line or per-field allocation, and the output is
// sized once from the line count. Each chunk parses into its own window
// of the output — at the offset of its first line, since a line yields
// at most one rectangle — and the windows are then compacted in order.
// Every chunk stops at its first bad line, so the first failing chunk
// holds the lowest-numbered error, which is the one reported: the same
// error a sequential scan would have returned.
func parseChunked(data []byte, chunks int) ([]geom.Rect, error) {
	// bounds[k] is where chunk k starts, just after a newline.
	bounds := make([]int, 1, chunks+1)
	for k := 1; k < chunks; k++ {
		cut := max(len(data)*k/chunks, bounds[k-1])
		if i := bytes.IndexByte(data[cut:], '\n'); i >= 0 {
			cut += i + 1
		} else {
			cut = len(data)
		}
		bounds = append(bounds, cut)
	}
	bounds = append(bounds, len(data))
	// firstLine[k] is the 0-based number of chunk k's first line, and
	// firstLine[chunks] bounds the number of rectangles.
	firstLine := make([]int, chunks+1)
	for k := 0; k < chunks; k++ {
		chunk := data[bounds[k]:bounds[k+1]]
		lines := bytes.Count(chunk, []byte{'\n'})
		if len(chunk) > 0 && chunk[len(chunk)-1] != '\n' {
			lines++ // a final line without a newline
		}
		firstLine[k+1] = firstLine[k] + lines
	}
	out := make([]geom.Rect, firstLine[chunks])
	counts := make([]int, chunks)
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for k := 0; k < chunks; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[k], errs[k] = parseLines(data[bounds[k]:bounds[k+1]], firstLine[k], out[firstLine[k]:])
		}()
	}
	wg.Wait()
	n := 0
	for k := 0; k < chunks; k++ {
		if errs[k] != nil {
			return nil, errs[k]
		}
		n += copy(out[n:], out[firstLine[k]:firstLine[k]+counts[k]])
	}
	if n == 0 {
		return nil, nil
	}
	return out[:n], nil
}

// parseLines parses the lines of text, numbering them from lineNo+1,
// into out, and returns how many rectangles it stored. It accepts the
// syntax of the original bufio.Scanner reader exactly: surrounding
// whitespace (as strings.TrimSpace has it) is ignored, blank lines and
// lines starting with '#' are skipped, and each other line must hold
// four comma-separated numbers.
func parseLines(text []byte, lineNo int, out []geom.Rect) (int, error) {
	n := 0
	for len(text) > 0 {
		lineNo++
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		if len(line) >= maxLineBytes {
			return 0, fmt.Errorf("dataset: line %d: %w", lineNo, bufio.ErrTooLong)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if commas := bytes.Count(line, []byte{','}); commas != 3 {
			return 0, fmt.Errorf("dataset: line %d: want 4 comma-separated fields, got %d", lineNo, commas+1)
		}
		var vals [4]float64
		for i := range vals {
			field := line
			if c := bytes.IndexByte(line, ','); c >= 0 {
				field, line = line[:c], line[c+1:]
			}
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
			if err != nil {
				return 0, fmt.Errorf("dataset: line %d field %d: %w", lineNo, i+1, err)
			}
			vals[i] = v
		}
		rect, err := geom.NewRect(vals[0], vals[1], vals[2], vals[3])
		if err != nil {
			return 0, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		out[n] = rect
		n++
	}
	return n, nil
}

// WriteFile writes rectangles to the named file.
func WriteFile(path string, rects []geom.Rect) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, rects); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads rectangles from the named file.
func ReadFile(path string) ([]geom.Rect, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data)
}
