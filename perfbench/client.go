package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nfvchain/internal/service"
)

// client is the benchmark's nfvd client. It posts pre-encoded bodies as
// given (so a repeated submission is byte-identical), polls the job status
// at a fixed interval, and fetches the raw result document.
type client struct {
	base string
	hc   *http.Client
	poll time.Duration
}

// roundTrip runs one job as a user makes it: POST the body to path, poll
// GET /v1/jobs/{id} until the job is terminal, then GET the result and hand
// it to decode. It fills rec's client-side phase timings and records a span
// per phase under parent.
func (c *client) roundTrip(ctx context.Context, path string, body [][]byte, decode func([]byte) error,
	tr *tracer, parent, job int, rec *jobRecord) error {
	t0 := time.Now()
	id := tr.begin("service.submit", parent, job)
	st, err := c.submit(ctx, path, body)
	tr.end(id)
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	if err != nil {
		return err
	}

	jobPath := "/v1/jobs/" + st.ID
	id = tr.begin("service.wait", parent, job)
	for st.State != service.StateDone && st.State != service.StateFailed && st.State != service.StateCanceled {
		select {
		case <-ctx.Done():
			tr.end(id)
			return ctx.Err()
		case <-time.After(c.poll):
		}
		st = &service.JobStatus{}
		if err := c.getJSON(ctx, jobPath, st); err != nil {
			tr.end(id)
			return err
		}
		rec.polls++
	}
	tr.end(id)
	t2 := time.Now()
	rec.wait = t2.Sub(t1)
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}

	id = tr.begin("service.result", parent, job)
	defer tr.end(id)
	data, err := c.get(ctx, jobPath+"/result")
	if err != nil {
		return err
	}
	rec.digest = digestOf(data)
	rec.size = len(data)
	err = decode(data)
	rec.result = time.Since(t2)
	return err
}

// submit posts the concatenated body parts and decodes the job status.
func (c *client) submit(ctx context.Context, path string, body [][]byte) (*service.JobStatus, error) {
	readers := make([]io.Reader, len(body))
	n := 0
	for i, b := range body {
		readers[i] = bytes.NewReader(b)
		n += len(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, io.MultiReader(readers...))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	req.ContentLength = int64(n)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("submit: decode status: %w", err)
	}
	return &st, nil
}

// get fetches path and returns the body of a 200 response.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// getJSON fetches path and decodes the JSON body into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	data, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("get %s: decode: %w", path, err)
	}
	return nil
}
