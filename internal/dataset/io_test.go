package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mwsjoin/internal/geom"
)

// referenceRead is the bufio.Scanner reader Read replaced, kept verbatim
// as the specification the byte-level, chunk-parallel reader must match.
func referenceRead(r io.Reader) ([]geom.Rect, error) {
	var rects []geom.Rect
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("dataset: line %d: want 4 comma-separated fields, got %d", lineNo, len(parts))
		}
		var vals [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", lineNo, i+1, err)
			}
			vals[i] = v
		}
		rect, err := geom.NewRect(vals[0], vals[1], vals[2], vals[3])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		rects = append(rects, rect)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rects, nil
}

// checkAgainstReference fails t unless got/gotErr is what the reference
// reader makes of data: the same rectangles bit for bit, or the same
// error. The reference reports an over-long line without a line number,
// so there only the error kind is compared.
func checkAgainstReference(t *testing.T, label string, data []byte, got []geom.Rect, gotErr error) {
	t.Helper()
	want, wantErr := referenceRead(bytes.NewReader(data))
	switch {
	case wantErr == nil && gotErr == nil:
		if len(got) != len(want) {
			t.Fatalf("%s: %d rectangles, reference %d", label, len(got), len(want))
		}
		for i := range want {
			a, b := got[i], want[i]
			if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
				math.Float64bits(a.L) != math.Float64bits(b.L) || math.Float64bits(a.B) != math.Float64bits(b.B) {
				t.Fatalf("%s: rectangle %d = %v, reference %v", label, i, a, b)
			}
		}
	case errors.Is(wantErr, bufio.ErrTooLong):
		if !errors.Is(gotErr, bufio.ErrTooLong) {
			t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
		}
	case wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
}

// FuzzReadRelation compares Read, and the same parse cut into three
// chunks, with the reference reader on arbitrary text.
func FuzzReadRelation(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		"# x,y,l,b\n1,2,3,4\n",
		"1,2,3,4",
		"  1 , 2 ,3,4 \r\n\n\t# c\n-0,5e3,0,0\n",
		"1,2,3\n",
		"1,2,3,4,5\n",
		"1,2,-3,4\n",
		"1,2,NaN,4\n",
		"1,2,3,4\n1,2,x,4\n1,2,3\n",
		"0x1p-2,1_0,+Inf,4\n",
		" 1,2,3,4\u0085\n",
		"1,2,3,4\n\n\n5,6,7,8\n#\n9,10,11,12",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		checkAgainstReference(t, "Read", data, got, err)
		got, err = parseChunked(data, 3)
		checkAgainstReference(t, "3 chunks", data, got, err)
	})
}

// TestReadErrorInSecondChunk puts the first bad line in the second of
// four chunks, a later bad line in the fourth, and checks that the
// chunked parse reports the first one under its global line number.
func TestReadErrorInSecondChunk(t *testing.T) {
	var lines []string
	for i := 1; i <= 400; i++ {
		switch i {
		case 150:
			lines = append(lines, "1,2,oops,4")
		case 350:
			lines = append(lines, "1,2,3")
		default:
			lines = append(lines, fmt.Sprintf("%d,%d,1,1", 1000+i, 2000+i))
		}
	}
	data := []byte(strings.Join(lines, "\n") + "\n")
	_, err := parseChunked(data, 4)
	if err == nil || !strings.HasPrefix(err.Error(), "dataset: line 150 field 3:") {
		t.Fatalf("4 chunks: error %v, want line 150 field 3", err)
	}
	checkAgainstReference(t, "4 chunks", data, nil, err)
}

// TestReadLargeInputParallel drives Read itself over the parallel
// threshold with several chunks: a clean input must match the
// reference, and a bad line deep in the input keeps its line number.
func TestReadLargeInputParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var buf bytes.Buffer
	buf.WriteString("# x,y,l,b\n")
	lines := 1
	for buf.Len() < 2*parallelParseBytes {
		lines++
		fmt.Fprintf(&buf, "%d.25, -%d.5,%d,0\n", lines, lines*7, lines%13)
		if lines%1000 == 0 {
			lines++
			buf.WriteString("\n  # comment\n")
			lines++
		}
	}
	data := buf.Bytes()
	got, err := Read(bytes.NewReader(data))
	checkAgainstReference(t, "large", data, got, err)

	bad := append(bytes.Clone(data), "1,2,3,4\n7,8,-1,1\n1,2,3,4\n"...)
	_, err = Read(bytes.NewReader(bad))
	if want := fmt.Sprintf("dataset: line %d:", lines+2); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %v, want prefix %q", err, want)
	}
	checkAgainstReference(t, "large bad", bad, nil, err)
}

// TestReadLineLimit pins the 1 MiB line limit to the reference reader's:
// one byte under passes, the limit itself fails, with or without a
// trailing newline.
func TestReadLineLimit(t *testing.T) {
	for _, pad := range []int{maxLineBytes - 1 - len("1,2,3,4"), maxLineBytes - len("1,2,3,4")} {
		for _, nl := range []string{"", "\n"} {
			data := []byte("5,6,7,8\n" + strings.Repeat(" ", pad) + "1,2,3,4" + nl)
			got, err := Read(bytes.NewReader(data))
			checkAgainstReference(t, fmt.Sprintf("pad %d nl %q", pad, nl), data, got, err)
			if err != nil && !strings.HasPrefix(err.Error(), "dataset: line 2:") {
				t.Errorf("over-long line error %v, want line 2", err)
			}
		}
	}
}

// TestParseAllocations checks that parsing allocates per call, not per
// line or field.
func TestParseAllocations(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&buf, "%d.125,%d,3.5,4\n", i, -i)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := parseChunked(data, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("parsing 1000 lines made %.0f allocations, want a handful", allocs)
	}
}
