// CLI plumbing shared by every command: one flag block (-version,
// -progress, -manifest, -events, plus the Profiler's flags), one Session
// wrapper that turns the parsed flags into a running recorder and tears
// everything down — manifest write included — in one Close call, and one
// Command frame that runs a whole CLI on top of both: parse, -version,
// resolve, session, body, and the 0/1/2 exit contract.
package obs

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// ReportedError marks an error the flag package has already printed to
// stderr (with usage), so the command must not print it a second time.
type ReportedError struct{ Err error }

func (e ReportedError) Error() string { return e.Err.Error() }
func (e ReportedError) Unwrap() error { return e.Err }

// Command is one CLI run through the shared frame. The frame owns the flag
// set, the observability flags, -version and the session; the command
// supplies its own flags, the resolve step that validates them, and the
// body.
type Command struct {
	Tool      string
	EngineTag string
	// Obs receives the observability flag block.
	Obs *CLIFlags
	// Flags registers the command's own flags on fs and returns its resolve
	// step. Resolve runs after a clean parse unless -version was given; it
	// returns the run's Spec, StoreDir, TraceOut and Timeline (the frame
	// fills in the rest of the SessionConfig).
	Flags func(fs *flag.FlagSet) (resolve func() (SessionConfig, error))
	// Body is the run itself; rec may be nil.
	Body func(rec *Rec, stdout, stderr io.Writer) error
}

// Parse builds the flag set, parses args and, unless -version was given,
// resolves them. A flag-package error (including flag.ErrHelp) comes back
// as a ReportedError: it is already on stderr.
func (c Command) Parse(args []string, stderr io.Writer) (SessionConfig, error) {
	fs := flag.NewFlagSet(c.Tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	resolve := c.Flags(fs)
	c.Obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return SessionConfig{}, ReportedError{err}
	}
	if c.Obs.Version {
		return SessionConfig{}, nil
	}
	sc, err := resolve()
	sc.Tool, sc.EngineTag, sc.Args, sc.Stderr = c.Tool, c.EngineTag, args, stderr
	return sc, err
}

// Main runs the command and returns its exit code: 2 for a command-line
// error, 1 for a run failure, 0 otherwise (-h and -version included). A
// session teardown error surfaces only when the body succeeded.
func (c Command) Main(args []string, stdout, stderr io.Writer) int {
	sc, err := c.Parse(args, stderr)
	if err != nil || c.Obs.Version {
		if err == nil {
			fmt.Fprintln(stdout, VersionLine(c.Tool, c.EngineTag))
		}
		return Exit(c.Tool, err, 2, stderr)
	}
	sess, err := c.Obs.Start(sc)
	if err == nil {
		err = c.Body(sess.Rec, stdout, stderr)
		if cerr := sess.Close(err); err == nil {
			err = cerr
		}
	}
	return Exit(c.Tool, err, 1, stderr)
}

// Exit is the CLI failure contract: it returns 0 for a nil error or -h, and
// code otherwise, after one "tool: err" line on stderr — none when the flag
// package already printed the error.
func Exit(tool string, err error, code int, stderr io.Writer) int {
	var rep ReportedError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case !errors.As(err, &rep):
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	}
	return code
}

// CLIFlags is the observability flag block.
type CLIFlags struct {
	Version  bool
	Progress bool
	Manifest string
	Events   string
	Prof     Profiler
}

// Register installs the full observability flag set (version, progress,
// manifest, events, profiling) on fs.
func (c *CLIFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Version, "version", false, "print tool, module version, and engine tag, then exit")
	fs.BoolVar(&c.Progress, "progress", false, "render live run progress (trials done, rate, ETA, warm %) on stderr")
	fs.StringVar(&c.Manifest, "manifest", "", "write the run manifest JSON to this path (default with -store: <store>/runs/<runid>.json)")
	fs.StringVar(&c.Events, "events", "", "append JSONL run events (run/point/trials/store_flush) to this file")
	c.Prof.Register(fs)
}

// SessionConfig describes one CLI run to Start.
type SessionConfig struct {
	Tool      string
	EngineTag string
	Args      []string  // raw argument vector, recorded in the manifest
	Spec      any       // the run's full configuration, recorded in the manifest
	Stderr    io.Writer // progress target when -progress is set
	StoreDir  string    // store root, "" if none; enables the default manifest location
	TraceOut  string    // path of the -trace output, recorded in the manifest
	Timeline  bool      // whether windowed timeline recording was on
}

// Session is one CLI run's live observability: profiling started, recorder
// (possibly nil — recording only happens when some output wants it) wired.
type Session struct {
	// Rec is the run recorder, or nil when no manifest, progress, or event
	// output is configured. All Rec methods are nil-safe, so callers pass
	// it along unconditionally.
	Rec *Rec

	prof       *Profiler
	eventsFile *os.File
	eventsBuf  *bufio.Writer
}

// Start begins profiling and, when any observability output is requested —
// -progress, -manifest, -events, or a store directory to default the
// manifest into — creates the run recorder. The returned Session is always
// usable (Close it exactly once, with the run's error).
func (c *CLIFlags) Start(sc SessionConfig) (*Session, error) {
	if err := c.Prof.Start(); err != nil {
		return nil, err
	}
	s := &Session{prof: &c.Prof}
	manifestDir := ""
	if c.Manifest == "" && sc.StoreDir != "" {
		manifestDir = RunsDir(sc.StoreDir)
	}
	if !c.Progress && c.Manifest == "" && c.Events == "" && manifestDir == "" {
		return s, nil
	}
	cfg := Config{
		Tool:         sc.Tool,
		Args:         sc.Args,
		EngineTag:    sc.EngineTag,
		Spec:         sc.Spec,
		ManifestPath: c.Manifest,
		ManifestDir:  manifestDir,
		TraceOut:     sc.TraceOut,
		Timeline:     sc.Timeline,
	}
	if c.Progress {
		cfg.Progress = sc.Stderr
	}
	if c.Events != "" {
		f, err := os.OpenFile(c.Events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.Prof.Stop()
			return nil, err
		}
		s.eventsFile = f
		// Buffer the JSONL stream: events are small and frequent, and the
		// recorder writes them from the run's hot path. Close flushes the
		// buffer on every exit — including the error/Abandon path — before
		// the file is closed, so a failed run's tail events still land.
		s.eventsBuf = bufio.NewWriter(f)
		cfg.Events = s.eventsBuf
	}
	s.Rec = New(cfg)
	return s, nil
}

// Close finalizes the session: the recorder writes its manifest (stamped
// with runErr when the run failed), the event log is closed, and profiles
// are flushed. It returns the first teardown error; callers report it only
// when the run itself succeeded.
func (s *Session) Close(runErr error) error {
	if s == nil {
		return nil
	}
	var first error
	if err := s.Rec.Close(runErr); err != nil {
		first = err
	}
	if s.eventsBuf != nil {
		// Rec.Close just emitted the final run_done/run_failed event into
		// the buffer; flush it before closing the underlying file.
		if err := s.eventsBuf.Flush(); err != nil && first == nil {
			first = err
		}
		s.eventsBuf = nil
	}
	if s.eventsFile != nil {
		if err := s.eventsFile.Close(); err != nil && first == nil {
			first = err
		}
		s.eventsFile = nil
	}
	if s.prof != nil {
		if err := s.prof.Stop(); err != nil && first == nil {
			first = err
		}
		s.prof = nil
	}
	return first
}
