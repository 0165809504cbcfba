package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSV interchange for traffic: the same table `deeprest traffic` emits with
// -format csv — a header of "window,<api>,<api>,..." followed by one row of
// integer request counts per scrape window. ReadCSV lets measured traffic
// (exported from an API gateway's access logs, for example) drive Mode-1
// queries directly.

// WriteCSV serialises the traffic as CSV.
func (t *Traffic) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"window"}, t.APIs...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("workload: write header: %w", err)
	}
	row := make([]string, len(t.APIs)+1)
	for i, counts := range t.Windows {
		row[0] = strconv.Itoa(i)
		for j, api := range t.APIs {
			row[j+1] = strconv.Itoa(counts[api])
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("workload: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses traffic from the CSV layout above. windowSeconds and
// windowsPerDay define the geometry the counts describe; windowsPerDay 0
// treats the whole file as one day.
func ReadCSV(r io.Reader, windowSeconds float64, windowsPerDay int) (*Traffic, error) {
	if windowSeconds <= 0 {
		return nil, fmt.Errorf("workload: windowSeconds must be positive")
	}
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: read CSV header: %w", err)
	}
	if len(header) < 2 || strings.TrimSpace(header[0]) != "window" {
		return nil, fmt.Errorf("workload: CSV header must start with %q and name at least one API", "window")
	}
	apis := make([]string, len(header)-1)
	for i, api := range header[1:] {
		api = strings.TrimSpace(api)
		if api == "" {
			return nil, fmt.Errorf("workload: empty API name in column %d", i+1)
		}
		apis[i] = api
	}
	t := &Traffic{
		WindowSeconds: windowSeconds,
		APIs:          append([]string(nil), apis...),
	}
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: read CSV row %d: %w", line, err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("workload: row %d has %d fields, want %d", line, len(row), len(header))
		}
		counts := make(map[string]int, len(apis))
		for j, api := range apis {
			n, err := strconv.Atoi(strings.TrimSpace(row[j+1]))
			if err != nil {
				return nil, fmt.Errorf("workload: row %d column %q: %w", line, api, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("workload: row %d column %q: negative count %d", line, api, n)
			}
			counts[api] = n
		}
		t.Windows = append(t.Windows, counts)
	}
	if len(t.Windows) == 0 {
		return nil, fmt.Errorf("workload: CSV has no data rows")
	}
	t.WindowsPerDay = windowsPerDay
	if t.WindowsPerDay <= 0 {
		t.WindowsPerDay = len(t.Windows)
	}
	return t, nil
}
