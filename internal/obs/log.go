package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// LogFormat selects the logger's line encoding.
type LogFormat int

const (
	// LogText is the human-readable default: time=… msg=… then key=value
	// pairs (log/slog's text encoding).
	LogText LogFormat = iota
	// LogJSON emits one JSON object per line, suitable for log pipelines.
	LogJSON
)

// ParseLogFormat maps the -log-format flag values.
func ParseLogFormat(s string) (LogFormat, error) {
	switch s {
	case "", "text":
		return LogText, nil
	case "json":
		return LogJSON, nil
	default:
		return LogText, fmt.Errorf("unknown log format %q (want text or json)", s)
	}
}

// Logger writes structured, trace-stamped log lines. Every request-scoped
// line carries its trace ID, so one investigation is greppable across the
// coordinator and every worker it fanned out to. A nil *Logger is valid
// and silent, so instrumentation sites log unconditionally.
type Logger struct {
	l *slog.Logger
}

// NewLogger creates a logger writing to w: log/slog's text or JSON handler,
// without the level key (every line is informational) and with timestamps
// in UTC.
func NewLogger(w io.Writer, format LogFormat) *Logger {
	opts := &slog.HandlerOptions{ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		switch a.Key {
		case slog.LevelKey:
			return slog.Attr{}
		case slog.TimeKey:
			a.Value = slog.TimeValue(a.Value.Time().UTC())
		}
		return a
	}}
	var h slog.Handler = slog.NewTextHandler(w, opts)
	if format == LogJSON {
		h = slog.NewJSONHandler(w, opts)
	}
	return &Logger{l: slog.New(h)}
}

// Log writes one line: a message plus alternating key, value pairs. The
// context's trace ID, when present, is added as trace=<id>.
func (l *Logger) Log(ctx context.Context, msg string, kv ...any) {
	if l == nil {
		return
	}
	if id := TraceID(ctx); id != "" {
		kv = append([]any{"trace", id}, kv...)
	}
	l.l.Log(ctx, slog.LevelInfo, msg, kv...)
}
