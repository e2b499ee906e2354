// Command fastcc-client talks to a running fastcc-serve daemon:
//
//	fastcc-client -server http://127.0.0.1:8080 -tenant alice upload A.tns
//	fastcc-client ... contract -left <hash> -right <hash> -expr "ik,kl->il"
//	fastcc-client ... fetch -id <result-id> -out O.tns
//	fastcc-client ... stats
//	fastcc-client ... selftest
//
// selftest generates two random tensors, contracts them both remotely and
// locally, and verifies the downloaded result is bit-identical to the local
// one — the scripted round-trip make serve-smoke runs against a freshly
// started daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"fastcc"
	"fastcc/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fastcc-client:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fastcc-client", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		base    = fs.String("server", "http://127.0.0.1:8080", "fastcc-serve base URL")
		tenant  = fs.String("tenant", "default", "tenant ID sent on every request")
		timeout = fs.Duration("timeout", 60*time.Second, "overall request deadline")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fastcc-client [flags] <upload|contract|fetch|stats|selftest> [subcommand flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := server.NewClient(*base, *tenant, nil)
	sub, rest := fs.Arg(0), fs.Args()[1:]
	switch sub {
	case "upload":
		return cmdUpload(ctx, c, rest, stdout, stderr)
	case "contract":
		return cmdContract(ctx, c, rest, stdout, stderr)
	case "fetch":
		return cmdFetch(ctx, c, rest, stdout, stderr)
	case "stats":
		return cmdStats(ctx, c, stdout)
	case "selftest":
		return cmdSelftest(ctx, c, rest, stdout, stderr)
	default:
		fs.Usage()
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

func cmdUpload(ctx context.Context, c *server.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("upload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("upload takes exactly one .tns file")
	}
	t, err := fastcc.LoadTNS(fs.Arg(0))
	if err != nil {
		return err
	}
	hash, err := c.Upload(ctx, t)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, hash)
	return nil
}

func cmdContract(ctx context.Context, c *server.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("contract", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		left  = fs.String("left", "", "left operand content hash (required)")
		right = fs.String("right", "", "right operand content hash (required)")
		expr  = fs.String("expr", "", "einsum expression, e.g. \"ik,kl->il\" (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *left == "" || *right == "" || *expr == "" {
		fs.Usage()
		return fmt.Errorf("-left, -right and -expr are required")
	}
	resp, err := c.Contract(ctx, &server.ContractRequest{Left: *left, Right: *right, Expr: *expr})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s nnz=%d total=%s shard_reused=%v\n",
		resp.ResultID, resp.OutputNNZ, time.Duration(resp.TotalNS), resp.ShardReused)
	return nil
}

func cmdFetch(ctx context.Context, c *server.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id  = fs.String("id", "", "result ID from contract (required)")
		out = fs.String("out", "", "output .tns path (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		fs.Usage()
		return fmt.Errorf("-id is required")
	}
	t, err := c.Fetch(ctx, *id)
	if err != nil {
		return err
	}
	if *out == "" {
		return fastcc.WriteTNS(stdout, t)
	}
	return fastcc.SaveTNS(*out, t)
}

func cmdStats(ctx context.Context, c *server.Client, stdout io.Writer) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cache: %s\n", st.Cache.String())
	fmt.Fprintf(stdout, "admission: in_flight=%d queued=%d\n", st.InFlight, st.Queued)
	fmt.Fprintf(stdout, "registry: operands=%d bytes=%d results=%d uploaded_bytes=%d\n",
		st.Operands, st.OperandBytes, st.Results, st.UploadedBytes)
	fmt.Fprintf(stdout, "%s\n", st.Tenant.String())
	return nil
}

// cmdSelftest runs the scripted round-trip: two random tensors, remote
// contraction, local contraction, bit-identical comparison, API cleanup.
func cmdSelftest(ctx context.Context, c *server.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("selftest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Int64("seed", 42, "random seed for the generated operands")
		threads = fs.Int("threads", 2, "threads for the local reference contraction (match the server's -threads)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	l := canonical(randomTensor(rng, []uint64{40, 30}, 400))
	r := canonical(randomTensor(rng, []uint64{30, 25}, 350))
	want, _, err := fastcc.Contract(l, r,
		fastcc.Spec{CtrLeft: []int{1}, CtrRight: []int{0}}, fastcc.WithThreads(*threads))
	if err != nil {
		return fmt.Errorf("local contraction: %w", err)
	}

	lh, err := c.Upload(ctx, l)
	if err != nil {
		return fmt.Errorf("upload left: %w", err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		return fmt.Errorf("upload right: %w", err)
	}
	fmt.Fprintf(stdout, "uploaded %s %s\n", lh[:12], rh[:12])

	for run := 0; run < 2; run++ {
		resp, err := c.Contract(ctx, &server.ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
		if err != nil {
			return fmt.Errorf("remote contraction: %w", err)
		}
		got, err := c.Fetch(ctx, resp.ResultID)
		if err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		if !fastcc.Equal(got, want) {
			return fmt.Errorf("run %d: remote result differs from local contraction", run)
		}
		fmt.Fprintf(stdout, "run %d: %d nonzeros match local contraction (shard_reused=%v)\n",
			run, resp.OutputNNZ, resp.ShardReused)
		if err := c.DeleteResult(ctx, resp.ResultID); err != nil {
			return fmt.Errorf("delete result: %w", err)
		}
	}

	if err := c.Release(ctx, lh); err != nil {
		return fmt.Errorf("release left: %w", err)
	}
	if err := c.Release(ctx, rh); err != nil {
		return fmt.Errorf("release right: %w", err)
	}
	fmt.Fprintln(stdout, "selftest ok")
	return nil
}

// randomTensor generates unique-coordinate random tensors (duplicates would
// make the canonical form sum values and break bit-identical comparison).
func randomTensor(rng *rand.Rand, dims []uint64, nnz int) *fastcc.Tensor {
	t := fastcc.NewTensor(dims, nnz)
	coords := make([]uint64, len(dims))
	seen := make(map[uint64]bool, nnz)
	for i := 0; i < nnz; i++ {
		lin := uint64(0)
		for m, d := range dims {
			coords[m] = rng.Uint64() % d
			lin = lin*d + coords[m]
		}
		if seen[lin] {
			continue
		}
		seen[lin] = true
		t.Append(coords, rng.NormFloat64())
	}
	return t
}

// canonical round-trips a tensor through BTNS so the local reference
// contraction sees exactly the operand bytes the server stores.
func canonical(t *fastcc.Tensor) *fastcc.Tensor {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(fastcc.WriteBTNS(pw, t)) }()
	c, err := fastcc.ReadBTNS(pr)
	if err != nil {
		panic(err)
	}
	return c
}
