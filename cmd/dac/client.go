package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// cmdClient is the HTTP client for a running dacd daemon: every API
// route as a subcommand, so scripts (and the CI smoke job) don't
// hand-roll curl + JSON parsing.
//
//	dac client submit -type tune -workload TS -quick -wait
//	dac client status -id 3 [-wait]
//	dac client jobs
//	dac client cancel -id 3
//	dac client models [-name ts]
//	dac client predict -name ts -workload TS -size 30
//	dac client backends
//	dac client searchers
func cmdClient(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("client: usage: dac client <submit|status|jobs|cancel|models|predict|backends|searchers> [flags]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		return clientSubmit(rest)
	case "status":
		return clientStatus(rest)
	case "jobs":
		return clientGet(rest, func(string) string { return "/jobs" })
	case "cancel":
		return clientCancel(rest)
	case "models":
		return clientModels(rest)
	case "predict":
		return clientPredict(rest)
	case "backends":
		return clientGet(rest, func(string) string { return "/backends" })
	case "searchers":
		return clientGet(rest, func(string) string { return "/searchers" })
	default:
		return fmt.Errorf("client: unknown subcommand %q", sub)
	}
}

// addrFlag registers the daemon address on a client flag set.
func addrFlag(fs *flag.FlagSet) *string {
	return fs.String("addr", "http://127.0.0.1:7411", "dacd base URL")
}

// dacToken is the shared secret attached to every request when set —
// daemons started with -auth-token reject mutating calls without it.
var dacToken string

// authFlag registers -auth-token and arranges for apiDo to send it.
// Callers must invoke the returned commit after fs.Parse.
func authFlag(fs *flag.FlagSet) (commit func()) {
	tok := fs.String("auth-token", os.Getenv("DAC_TOKEN"), "shared secret for daemons started with -auth-token (default $DAC_TOKEN)")
	return func() { dacToken = *tok }
}

// apiDo performs one request and decodes the JSON body, turning the
// daemon's {"error": ...} responses into Go errors.
func apiDo(method, url string, body any) (map[string]any, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dacToken != "" {
		req.Header.Set("Authorization", "Bearer "+dacToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding %s %s: %w", method, url, err)
	}
	if msg, ok := out["error"].(string); ok && resp.StatusCode >= 400 {
		return nil, fmt.Errorf("client: %s", msg)
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("client: %s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return out, nil
}

// printJSON renders a response for both humans and scripts (stable
// indented JSON on stdout).
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// clientGet handles the flagless listing subcommands.
func clientGet(args []string, path func(addr string) string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := addrFlag(fs)
	fs.Parse(args)
	out, err := apiDo("GET", strings.TrimRight(*addr, "/")+path(*addr), nil)
	if err != nil {
		return err
	}
	return printJSON(out)
}

func clientSubmit(args []string) error {
	fs := flag.NewFlagSet("client submit", flag.ExitOnError)
	addr := addrFlag(fs)
	specJSON := fs.String("spec", "", "raw JobSpec JSON (overrides the individual flags)")
	typ := fs.String("type", "tune", "job type (collect|train|search|tune|tune_online)")
	workload := fs.String("workload", "", "workload abbreviation")
	size := fs.Float64("size", 0, "target datasize in workload units")
	ntrain := fs.Int("ntrain", 0, "vectors to collect")
	seed := fs.Int64("seed", 0, "random seed (0 = daemon default)")
	modelName := fs.String("model", "", "registry model name")
	backend := fs.String("backend", "", "model backend (hm|rf|rs|ann|svm)")
	searcher := fs.String("searcher", "", "configuration searcher (ga|tpe|random|rrs|pattern|anneal)")
	fromJob := fs.Int64("from-job", 0, "finished collect job feeding a train job")
	warmFrom := fs.String("warm-from", "", "registered model to warm-start from")
	extraTrees := fs.Int("extra-trees", 0, "warm-start boosting budget")
	quick := fs.Bool("quick", false, "smoke-test budgets")
	hmTrees := fs.Int("hm-trees", 0, "tree budget override")
	gaPop := fs.Int("ga-pop", 0, "GA population override")
	gaGen := fs.Int("ga-generations", 0, "GA generations override")
	screenSamples := fs.Int("screen-samples", 0, "tune_online: screening sample count")
	topK := fs.Int("top-k", 0, "tune_online: parameters kept tunable after screening")
	iterations := fs.Int("iterations", 0, "tune_online: refit/search iterations")
	iterBatch := fs.Int("iter-batch", 0, "tune_online: measured candidates per iteration")
	wait := fs.Bool("wait", false, "poll until the job finishes and print its final state")
	timeout := fs.Duration("timeout", 10*time.Minute, "-wait limit")
	commitAuth := authFlag(fs)
	fs.Parse(args)
	commitAuth()

	var spec serve.JobSpec
	if *specJSON != "" {
		if err := json.Unmarshal([]byte(*specJSON), &spec); err != nil {
			return fmt.Errorf("client: parsing -spec: %w", err)
		}
	} else {
		spec = serve.JobSpec{
			Type:          serve.JobType(*typ),
			Workload:      *workload,
			Size:          *size,
			NTrain:        *ntrain,
			Seed:          *seed,
			Model:         *modelName,
			Backend:       *backend,
			Searcher:      *searcher,
			FromJob:       *fromJob,
			WarmFrom:      *warmFrom,
			ExtraTrees:    *extraTrees,
			Quick:         *quick,
			HMTrees:       *hmTrees,
			GAPop:         *gaPop,
			GAGenerations: *gaGen,
			ScreenSamples: *screenSamples,
			TopK:          *topK,
			Iterations:    *iterations,
			IterBatch:     *iterBatch,
		}
	}
	base := strings.TrimRight(*addr, "/")
	out, err := apiDo("POST", base+"/jobs", spec)
	if err != nil {
		return err
	}
	if !*wait {
		return printJSON(out)
	}
	id, ok := out["id"].(float64)
	if !ok {
		return fmt.Errorf("client: submit response had no job id: %v", out)
	}
	fmt.Fprintf(os.Stderr, "job %d submitted (deduped=%v), waiting...\n", int64(id), out["deduped"])
	return waitForJob(base, int64(id), *timeout)
}

// waitForJob polls one job until it leaves the queued/running states,
// prints its final JSON, and maps failure states to a non-zero exit.
func waitForJob(base string, id int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		out, err := apiDo("GET", fmt.Sprintf("%s/jobs/%d", base, id), nil)
		if err != nil {
			return err
		}
		state, _ := out["state"].(string)
		switch state {
		case serve.StateDone:
			return printJSON(out)
		case serve.StateFailed, serve.StateCancelled:
			printJSON(out)
			return fmt.Errorf("client: job %d %s: %v", id, state, out["error"])
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("client: job %d still %s after %s", id, state, timeout)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

func clientStatus(args []string) error {
	fs := flag.NewFlagSet("client status", flag.ExitOnError)
	addr := addrFlag(fs)
	id := fs.Int64("id", 0, "job id (required)")
	wait := fs.Bool("wait", false, "poll until the job finishes")
	timeout := fs.Duration("timeout", 10*time.Minute, "-wait limit")
	fs.Parse(args)
	if *id == 0 {
		return fmt.Errorf("client: status needs -id")
	}
	base := strings.TrimRight(*addr, "/")
	if *wait {
		return waitForJob(base, *id, *timeout)
	}
	out, err := apiDo("GET", fmt.Sprintf("%s/jobs/%d", base, *id), nil)
	if err != nil {
		return err
	}
	return printJSON(out)
}

func clientCancel(args []string) error {
	fs := flag.NewFlagSet("client cancel", flag.ExitOnError)
	addr := addrFlag(fs)
	id := fs.Int64("id", 0, "job id (required)")
	commitAuth := authFlag(fs)
	fs.Parse(args)
	commitAuth()
	if *id == 0 {
		return fmt.Errorf("client: cancel needs -id")
	}
	out, err := apiDo("POST", fmt.Sprintf("%s/jobs/%d/cancel", strings.TrimRight(*addr, "/"), *id), nil)
	if err != nil {
		return err
	}
	return printJSON(out)
}

func clientModels(args []string) error {
	fs := flag.NewFlagSet("client models", flag.ExitOnError)
	addr := addrFlag(fs)
	name := fs.String("name", "", "one model's versions (default: list all)")
	fs.Parse(args)
	path := "/models"
	if *name != "" {
		path += "/" + *name
	}
	out, err := apiDo("GET", strings.TrimRight(*addr, "/")+path, nil)
	if err != nil {
		return err
	}
	return printJSON(out)
}

func clientPredict(args []string) error {
	fs := flag.NewFlagSet("client predict", flag.ExitOnError)
	addr := addrFlag(fs)
	name := fs.String("name", "", "registry model name (required)")
	version := fs.Int("version", 0, "model version (0 = latest)")
	workload := fs.String("workload", "", "workload abbreviation (for datasize units)")
	size := fs.Float64("size", 0, "datasize in workload units")
	dsizeMB := fs.Float64("dsize-mb", 0, "datasize in MB (alternative to -workload/-size)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("client: predict needs -name")
	}
	req := map[string]any{"version": *version}
	if *workload != "" {
		req["workload"] = *workload
		req["size"] = *size
	}
	if *dsizeMB > 0 {
		req["dsize_mb"] = *dsizeMB
	}
	url := fmt.Sprintf("%s/models/%s/predict", strings.TrimRight(*addr, "/"), *name)
	out, err := apiDo("POST", url, req)
	if err != nil {
		return err
	}
	return printJSON(out)
}
