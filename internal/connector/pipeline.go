package connector

import (
	"fmt"
	"time"
)

// Pipeline is one assembled input → engine → outputs run: the runner driving
// the configured input (nil for the native HTTP push input, whose handlers
// feed the engine directly) and the dispatcher fanning deliveries out. It is
// the StatsSource the HTTP layer mounts on /metrics.
type Pipeline struct {
	Runner   *Runner
	Dispatch *Dispatcher
}

// Acknowledge forwards a durable checkpoint watermark to the input's runner.
// The checkpoint manager's post-write hook calls it.
func (p *Pipeline) Acknowledge(w uint64) {
	if p.Runner != nil {
		p.Runner.Acknowledge(w)
	}
}

// ConnectorStats implements StatsSource: the input runner's counters followed
// by one entry per output.
func (p *Pipeline) ConnectorStats() []Stat {
	var stats []Stat
	if p.Runner != nil {
		stats = append(stats, p.Runner.Stats())
	}
	if p.Dispatch != nil {
		stats = append(stats, p.Dispatch.Stats()...)
	}
	return stats
}

// BuildInput constructs the configured input plugin and its optional replay
// pacer. The native "http" input has no plugin instance (the HTTP handlers
// are the input) and returns (nil, nil, nil).
func BuildInput(ic InputConfig) (Input, *Pacer, error) {
	switch ic.Type {
	case InputHTTP:
		return nil, nil, nil
	case InputFile:
		in, err := NewFileInput(ic.Path, FileInputOptions{
			Tail:         ic.Tail,
			PollInterval: time.Duration(ic.PollMillis) * time.Millisecond,
			AckPath:      ic.AckPath,
		})
		if err != nil {
			return nil, nil, err
		}
		var pacer *Pacer
		if ic.Speedup > 0 {
			pacer, err = NewPacer(ic.Speedup)
			if err != nil {
				_ = in.Close()
				return nil, nil, err
			}
		}
		return in, pacer, nil
	case InputTCP:
		in, err := NewTCPInput(ic.Addr)
		if err != nil {
			return nil, nil, err
		}
		return in, nil, nil
	default:
		return nil, nil, fmt.Errorf("connector: unknown input type %q", string(ic.Type))
	}
}

// BuildOutput constructs one configured output plugin. publishSSE is the SSE
// broker callback an "sse" output wraps.
func BuildOutput(oc OutputConfig, publishSSE func(Delivery)) (Output, error) {
	switch oc.Type {
	case OutputSSE:
		return NewSSEOutput(publishSSE)
	case OutputWebhook:
		return NewWebhookOutput(WebhookConfig{
			URL:          oc.URL,
			QueueSize:    oc.QueueSize,
			MaxRetries:   oc.MaxRetries,
			Backoff:      time.Duration(oc.BackoffMillis) * time.Millisecond,
			Timeout:      time.Duration(oc.TimeoutMillis) * time.Millisecond,
			FlushTimeout: time.Duration(oc.FlushMillis) * time.Millisecond,
		})
	default:
		return nil, fmt.Errorf("connector: unknown output type %q", string(oc.Type))
	}
}
