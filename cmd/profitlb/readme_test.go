package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"profitlb/internal/exp"
)

var (
	// commandDocs are the documents whose commands TestReadmeCommands runs.
	commandDocs = []string{
		filepath.Join("..", "..", "README.md"),
		filepath.Join("..", "..", ".claude", "skills", "verify", "SKILL.md"),
	}
	inlineCode = regexp.MustCompile("`([^`]+)`")
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):([^=]|$)`)
	// argless are the subcommands that parse no arguments.
	argless = map[string]bool{"list": true, "prices": true, "scaffold": true}
)

// docCommand is one command a document shows: its line and its words.
type docCommand struct {
	line  int
	words []string
}

// TestReadmeCommands checks every command the user-facing documents show,
// in a code block or an inline code span, against the CLI and the
// Makefile. A profitlb command goes through run with -h appended, so it
// must stop at the help request: every flag it spells exists on its
// subcommand and takes the value shown. A run names registered
// experiments, and a make target exists.
func TestReadmeCommands(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devNull, devNull // -h prints each flag set's usage
	t.Cleanup(func() {
		os.Stdout, os.Stderr = stdout, stderr
		devNull.Close()
	})

	var cli, makes int
	for _, doc := range commandDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range docCommands(string(b)) {
			where := fmt.Sprintf("%s:%d: %s", filepath.Base(doc), c.line, strings.Join(c.words, " "))
			if c.words[0] == "make" {
				makes++
				for _, w := range c.words[1:] {
					if !strings.Contains(w, "=") && !targets[w] {
						t.Errorf("%s: the Makefile has no target %q", where, w)
					}
				}
				continue
			}
			args := cliArgs(c.words)
			if len(args) == 0 {
				continue
			}
			cli++
			sub, rest := args[0], args[1:]
			if argless[sub] {
				if len(rest) > 0 {
					t.Errorf("%s: %s takes no arguments", where, sub)
				}
				continue
			}
			if sub == "run" {
				// The ids come out, so that nothing runs; an unknown one
				// stays and fails the parse.
				var ids int
				var flags []string
				for _, w := range rest {
					if _, ok := exp.Get(w); ok || w == "all" {
						ids++
					} else {
						flags = append(flags, w)
					}
				}
				if ids == 0 {
					t.Errorf("%s: names no experiment", where)
				}
				rest = flags
			}
			if err := run(append(append([]string{sub}, rest...), "-h")); !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%s: with -h appended, run returns %v, want the help request", where, err)
			}
		}
	}
	if cli < 10 || makes == 0 {
		t.Fatalf("found %d profitlb and %d make commands: the scan is broken", cli, makes)
	}
}

// docCommands returns the commands of a markdown document: each line of a
// fenced code block, with backslash continuations joined, and each inline
// code span outside the blocks.
func docCommands(doc string) []docCommand {
	var cmds []docCommand
	lines := strings.Split(doc, "\n")
	fenced, pending, start := false, "", 0
	for i, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if !fenced {
			continue
		}
		if pending == "" {
			start = i + 1
		}
		pending += " " + ln
		lines[i] = "" // inline spans are read from the prose only
		if strings.HasSuffix(ln, `\`) {
			pending = strings.TrimSuffix(pending, `\`)
			continue
		}
		if w := shellWords(pending); len(w) > 0 {
			cmds = append(cmds, docCommand{start, w})
		}
		pending = ""
	}
	prose := strings.Join(lines, "\n")
	for _, m := range inlineCode.FindAllStringSubmatchIndex(prose, -1) {
		if w := shellWords(prose[m[2]:m[3]]); len(w) > 0 {
			cmds = append(cmds, docCommand{strings.Count(prose[:m[0]], "\n") + 1, w})
		}
	}
	return cmds
}

// shellWords splits a command line into words, up to a comment, a pipe, a
// redirection or a command separator, with quotes stripped.
func shellWords(s string) []string {
	var words []string
	for _, w := range strings.Fields(s) {
		if strings.HasPrefix(w, "#") || strings.ContainsAny(w[:1], "|&;<>") || strings.HasPrefix(w, "2>") {
			break
		}
		words = append(words, strings.Trim(w, `'"`))
	}
	return words
}

// cliArgs returns the arguments of a profitlb invocation (the binary by
// name or path, or go run of its package), or nil for any other command.
func cliArgs(words []string) []string {
	switch bin := words[0]; {
	case bin == "profitlb", strings.HasSuffix(bin, "/profitlb") && strings.ContainsAny(bin[:1], "./"):
		return words[1:]
	case len(words) > 2 && bin == "go" && words[1] == "run" && filepath.Base(words[2]) == "profitlb":
		return words[3:]
	}
	return nil
}
