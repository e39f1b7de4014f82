package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The two trace-derived distributions below are the standard datacenter
// workloads of the flow-scheduling literature, used alongside the Facebook
// workloads for scenario runs:
//
//   - WebSearch is modelled after the web-search cluster measurements of the
//     DCTCP paper (Alizadeh et al., SIGCOMM 2010): a mix of short queries and
//     multi-megabyte background transfers.
//   - DataMining is modelled after the data-mining cluster measurements of
//     VL2 (Greenberg et al., SIGCOMM 2009): over half the flows fit in a
//     single packet while most bytes travel in flows of 100 MB and more.
//
// Both tables are expressed in bytes, with sizes quantized to 1460-byte MSS
// multiples as in the published CDFs.

// webSearchCDF is the DCTCP web-search flow-size CDF.
var webSearchCDF = []cdfPoint{
	{Bytes: 1460, Prob: 0},
	{Bytes: 1460, Prob: 0.15},
	{Bytes: 2920, Prob: 0.20},
	{Bytes: 4380, Prob: 0.30},
	{Bytes: 7300, Prob: 0.40},
	{Bytes: 10220, Prob: 0.53},
	{Bytes: 58400, Prob: 0.60},
	{Bytes: 105120, Prob: 0.70},
	{Bytes: 200020, Prob: 0.80},
	{Bytes: 389820, Prob: 0.90},
	{Bytes: 1733020, Prob: 0.95},
	{Bytes: 3076220, Prob: 0.98},
	{Bytes: 8760000, Prob: 1.0},
}

// dataMiningCDF is the VL2 data-mining flow-size CDF.
var dataMiningCDF = []cdfPoint{
	{Bytes: 100, Prob: 0},
	{Bytes: 1460, Prob: 0.50},
	{Bytes: 2920, Prob: 0.60},
	{Bytes: 4380, Prob: 0.70},
	{Bytes: 10220, Prob: 0.80},
	{Bytes: 389820, Prob: 0.90},
	{Bytes: 3076220, Prob: 0.95},
	{Bytes: 97333000, Prob: 0.99},
	{Bytes: 973330000, Prob: 1.0},
}

// ParseCDF reads an empirical flow-size CDF from r and returns a sampler for
// it. The format is the one used by the classic simulator trace files: one
// point per line, either
//
//	<bytes> <cumulative-probability>
//
// or the three-column ns-2 form
//
//	<bytes> <id> <cumulative-probability>
//
// where the middle column is ignored. Blank lines and lines starting with '#'
// are skipped. Probabilities must be non-decreasing and end at 1; if the
// first point has a probability above zero, a zero-probability point at the
// same size is prepended so the CDF spans [0, 1].
func ParseCDF(name string, r io.Reader) (*EmpiricalDist, error) {
	var points []cdfPoint
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var bytesField, probField string
		switch len(fields) {
		case 2:
			bytesField, probField = fields[0], fields[1]
		case 3:
			bytesField, probField = fields[0], fields[2]
		default:
			return nil, fmt.Errorf("workload: %s:%d: want 2 or 3 columns, got %d", name, lineNo, len(fields))
		}
		size, err := strconv.ParseFloat(bytesField, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: %s:%d: bad size %q: %v", name, lineNo, bytesField, err)
		}
		if math.IsNaN(size) || math.IsInf(size, 0) {
			return nil, fmt.Errorf("workload: %s:%d: size %g is not finite", name, lineNo, size)
		}
		prob, err := strconv.ParseFloat(probField, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: %s:%d: bad probability %q: %v", name, lineNo, probField, err)
		}
		if !(prob >= 0 && prob <= 1) { // NaN fails every comparison
			return nil, fmt.Errorf("workload: %s:%d: probability %g outside [0,1]", name, lineNo, prob)
		}
		points = append(points, cdfPoint{Bytes: size, Prob: prob})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading %s: %w", name, err)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: %s: no CDF points", name)
	}
	if points[0].Prob > 0 {
		points = append([]cdfPoint{{Bytes: points[0].Bytes, Prob: 0}}, points...)
	}
	last := &points[len(points)-1]
	if math.Abs(last.Prob-1) > 1e-9 {
		return nil, fmt.Errorf("workload: %s: CDF ends at probability %g, want 1", name, last.Prob)
	}
	last.Prob = 1
	return NewEmpirical(name, points)
}

// LoadCDFFile reads an empirical flow-size CDF from a file (see ParseCDF for
// the accepted format). The distribution is named after the file's base name.
func LoadCDFFile(path string) (*EmpiricalDist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return ParseCDF(base, f)
}
