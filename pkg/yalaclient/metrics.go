package yalaclient

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// MetricPoint is one sample from a Prometheus text exposition:
// yala_requests_total{verb="predict"} 42 parses to
// {Name: "yala_requests_total", Labels: `verb="predict"`, Value: 42}.
type MetricPoint struct {
	Name   string
	Labels string // raw label text between the braces, "" when unlabeled
	Value  float64
}

// MetricsSnapshot is one parsed scrape of a server's GET /metrics —
// the serve replicas' yala_* series, or a gateway's gateway_* series
// plus the fleet-aggregated replica series.
type MetricsSnapshot struct {
	Points []MetricPoint
}

// Value returns the first sample with the given name whose label text
// contains labelSubstr ("" matches any labeling, including none).
func (s MetricsSnapshot) Value(name, labelSubstr string) (float64, bool) {
	for _, p := range s.Points {
		if p.Name == name && (labelSubstr == "" || strings.Contains(p.Labels, labelSubstr)) {
			return p.Value, true
		}
	}
	return 0, false
}

// Label extracts one label's value from a point's raw label text, ""
// when absent.
func (p MetricPoint) Label(key string) string {
	rest := p.Labels
	for rest != "" {
		rest = strings.TrimLeft(rest, ", ")
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return ""
		}
		k := strings.TrimSpace(rest[:eq])
		var val strings.Builder
		i := eq + 2
		for i < len(rest) && rest[i] != '"' {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				if rest[i] == 'n' {
					val.WriteByte('\n')
					i++
					continue
				}
			}
			val.WriteByte(rest[i])
			i++
		}
		if i >= len(rest) {
			return "" // unterminated quote
		}
		if k == key {
			return val.String()
		}
		rest = rest[i+1:]
	}
	return ""
}

// ScrapeMetrics parses a Prometheus text exposition (version 0.0.4)
// with the same tolerant parser the gateway merges replica scrapes with
// (obs.ParseExposition): comment and TYPE lines are skipped, malformed
// lines are dropped, and an optional trailing timestamp is ignored — a
// scrape should degrade, not fail, when a server adds series this
// client predates. Input the parser cannot read at all (a line over
// 1 MiB) yields an empty snapshot.
func ScrapeMetrics(data string) MetricsSnapshot {
	exp, err := obs.ParseExposition(strings.NewReader(data))
	if err != nil {
		return MetricsSnapshot{}
	}
	return snapshotOf(exp)
}

// snapshotOf maps parsed exposition samples to MetricPoints.
func snapshotOf(exp *obs.Exposition) MetricsSnapshot {
	var snap MetricsSnapshot
	for _, sm := range exp.Samples {
		snap.Points = append(snap.Points, MetricPoint{Name: sm.Name, Labels: sm.Labels, Value: sm.Value})
	}
	return snap
}

// Metrics scrapes and parses the server's GET /metrics. Pointed at a
// gateway it returns the gateway's own series plus the fleet-merged
// replica series.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return MetricsSnapshot{}, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return MetricsSnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return MetricsSnapshot{}, fmt.Errorf("yalaclient: GET /metrics: status %d", resp.StatusCode)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return MetricsSnapshot{}, err
	}
	return snapshotOf(exp), nil
}
