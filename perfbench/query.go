package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// queryLoad is the result of one reader issuing fresh /query requests.
type queryLoad struct {
	lat       []float64 // ms, each from the request's due time
	attempted int
	failed    int // non-200, transport errors, undecodable bodies
	// decreased counts responses whose event total fell below an
	// earlier response's: the store's read side must never go back.
	decreased int
	last      int64
	lastErr   string
}

// readLoop is one open-loop reader: request k is due at start+k/rate
// and is timed from then, so a stall also counts against the requests
// queued behind it. It stops issuing once a due time reaches stop.
func readLoop(ctx context.Context, url string, rate float64, start, stop time.Time) queryLoad {
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var res queryLoad
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if !due.Before(stop) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return res
			}
		}
		res.query(ctx, client, url, due)
	}
	return res
}

// readBackToBack is a closed-loop reader over a finished capture: n
// requests, each sent when the previous one has returned.
func readBackToBack(ctx context.Context, url string, n int) queryLoad {
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var res queryLoad
	for k := 0; k < n && ctx.Err() == nil; k++ {
		res.query(ctx, client, url, time.Now())
	}
	return res
}

// query issues one request due at due and accounts for it.
func (res *queryLoad) query(ctx context.Context, client *http.Client, url string, due time.Time) {
	res.attempted++
	events, err := fetchEvents(ctx, client, url)
	res.lat = append(res.lat, ms(time.Since(due)))
	if err != nil {
		res.failed++
		res.lastErr = err.Error()
		return
	}
	if res.attempted > 1 && events < res.last {
		res.decreased++
	}
	res.last = events
}

// fetchEvents issues one request and returns the response's event total.
func fetchEvents(ctx context.Context, client *http.Client, url string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("query: status %d", resp.StatusCode)
	}
	var q struct {
		Events *int64 `json:"events"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		return 0, fmt.Errorf("query: %w", err)
	}
	if q.Events == nil {
		return 0, fmt.Errorf("query: response has no event total")
	}
	return *q.Events, nil
}
