package main

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/telemetry"
)

// promScrape is one reading of a Prometheus /metrics endpoint.
type promScrape []telemetry.PromSample

// parseScrape parses the text exposition format.
func parseScrape(r io.Reader) (promScrape, error) {
	s, err := telemetry.ParsePrometheus(r)
	return promScrape(s), err
}

// scrapeMetrics fetches and parses url.
func scrapeMetrics(client *http.Client, url string) (promScrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return parseScrape(resp.Body)
}

// Sum adds every series of the family name whose labels include all
// of the given key/value pairs (none: the whole family). A family the
// scrape lacks sums to 0: pbxd registers some families lazily.
func (s promScrape) Sum(name string, match ...string) float64 {
	var total float64
next:
	for _, smp := range s {
		if smp.Name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if smp.Label(match[i]) != match[i+1] {
				continue next
			}
		}
		total += smp.Value
	}
	return total
}

// promDelta is the change of counters between two scrapes bracketing
// a measured window.
type promDelta struct{ before, after promScrape }

// Delta returns after.Sum - before.Sum for one family and filter.
func (d promDelta) Delta(name string, match ...string) float64 {
	return d.after.Sum(name, match...) - d.before.Sum(name, match...)
}
