package framework

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// loanMachine is a small ownership protocol: a record is lent (borrowed,
// no duty), taken (now owned), and put back. Only "held" may not reach
// function exit.
func loanMachine() *Machine[string] {
	return NewMachine("loan", "idle").
		Rule("idle", "lend", "lent").
		Rule("lent", "take", "held").
		Rule("held", "take", "held").
		Rule("lent", "put", "done").
		Rule("held", "put", "done").
		Accept("idle", "lent", "done")
}

// analyzeLoan runs loanMachine over `body` with a syntactic classifier:
// lend() births the record, take() fires a restamping take, put() a put.
// It returns the violations rendered as "line:verb:state" (verb "exit"
// for exit violations), with lines counted from the body's first line.
func analyzeLoan(t *testing.T, body string) string {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\nfunc f(c bool) {\n" + body + "\n}\n"
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ts := &Typestate[string]{
		Machine: loanMachine(),
		Classify: func(_ *FuncInfo, n ast.Node, emit func(TsOp)) {
			ast.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch name := call.Fun.(*ast.Ident).Name; name {
				case "lend":
					emit(TsOp{Key: "r", Birth: true, Pos: call.Pos()})
					emit(TsOp{Key: "r", Verb: name, Pos: call.Pos()})
				case "take":
					emit(TsOp{Key: "r", Verb: name, Pos: call.Pos(), Restamp: true})
				default:
					emit(TsOp{Key: "r", Verb: name, Pos: call.Pos()})
				}
				return true
			})
		},
	}
	var out []string
	for _, v := range ts.Analyze(&FuncInfo{Decl: f.Decls[0].(*ast.FuncDecl)}, nil, nil) {
		verb := v.Verb
		if v.Exit {
			verb = "exit"
		}
		out = append(out, fmt.Sprintf("%d:%s:%s", fset.Position(v.Pos).Line-2, verb, v.State))
	}
	return strings.Join(out, " ")
}

func TestTypestate(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"clean", "lend()\ntake()\nput()", ""},
		{"borrow needs no put", "lend()", ""},
		{"exit names the restamping op", "lend()\n\ntake()", "3:exit:held"},
		{"self-loop keeps the stamp", "lend()\ntake()\ntake()", "2:exit:held"},
		{"join keeps the earlier stamp", "lend()\nif c {\ntake()\n}", "1:exit:held"},
		{"refused verb wedges the record", "lend()\ntake()\nput()\nput()\nput()", "4:put:done"},
		{"wedged record skips the exit check", "lend()\ntake()\nif c {\nput()\n}\ntake()", "6:take:done"},
	}
	for _, c := range cases {
		if got := analyzeLoan(t, c.body); got != c.want {
			t.Errorf("%s: violations %q, want %q", c.name, got, c.want)
		}
	}
}
