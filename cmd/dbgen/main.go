// Command dbgen generates TPC-H tables as pipe-separated .tbl files, the
// classic dbgen output format.
//
// Usage:
//
//	dbgen [-sf 0.1] [-seed 42] [-o dir] [table...]
//
// With no table arguments, all eight tables are generated. A scale factor
// that is not positive and finite, or an unknown table name, is a usage
// error: one line on stderr and exit status 2.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is dbgen with its arguments and output streams, returning the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := fs.Float64("sf", 0.01, "TPC-H scale factor")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("o", ".", "output directory")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if err := tpch.CheckScale(*sf); err != nil {
		fmt.Fprintf(stderr, "dbgen: -sf: %v\n", err)
		return 2
	}
	tables := fs.Args()
	for _, name := range tables {
		if !slices.Contains(tpch.Tables, name) {
			fmt.Fprintf(stderr, "dbgen: unknown table %q (tables: %s)\n", name, strings.Join(tpch.Tables, " "))
			return 2
		}
	}

	cat := catalog.NewCatalog()
	tpch.NewGenerator(*sf, *seed).Load(cat, tables...)

	for _, name := range cat.Names() {
		if err := writeTable(cat.MustTable(name), *out, stdout); err != nil {
			fmt.Fprintln(stderr, "dbgen:", err)
			return 1
		}
	}
	return 0
}

func writeTable(t *catalog.Table, dir string, stdout io.Writer) error {
	path := filepath.Join(dir, t.Name+".tbl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	w := bufio.NewWriterSize(f, 1<<20)
	var sb strings.Builder
	for p := 0; p < t.Heap.NumPages(); p++ {
		for _, row := range t.Heap.Page(p).Rows() {
			sb.Reset()
			for i, v := range row {
				if i > 0 {
					sb.WriteByte('|')
				}
				sb.WriteString(formatValue(v))
			}
			sb.WriteByte('\n')
			if _, err := w.WriteString(sb.String()); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d rows (%.1f KB) -> %s\n",
		t.Name, t.Heap.NumRows(), float64(t.Heap.Bytes())/1024, path)
	return nil
}

func formatValue(v expr.Value) string {
	switch v.Kind {
	case expr.KindFloat:
		return fmt.Sprintf("%.2f", v.F)
	default:
		return v.String()
	}
}
