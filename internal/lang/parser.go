package lang

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/systemds/systemds-go/internal/types"
)

// Parse lexes and parses a DML script into a Program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	toks = normalizeNewlines(toks)
	p := &parser{toks: toks}
	prog := &Program{Functions: map[string]*FunctionDef{}}
	for !p.atEOF() {
		p.skipSeparators()
		if p.atEOF() {
			break
		}
		// function definition: ident = function(...)
		if p.peek().Kind == TokenIdent && p.peekAt(1).Kind == TokenOperator && p.peekAt(1).Text == "=" &&
			p.peekAt(2).Kind == TokenKeyword && p.peekAt(2).Text == "function" {
			fn, err := p.parseFunctionDef()
			if err != nil {
				return nil, err
			}
			if _, exists := prog.Functions[fn.Name]; exists {
				return nil, fmt.Errorf("lang: function %q defined twice", fn.Name)
			}
			prog.Functions[fn.Name] = fn
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, stmt)
	}
	return prog, nil
}

// normalizeNewlines removes newline tokens that appear inside parentheses or
// brackets (expressions may span lines there) and after commas or binary
// operators, keeping newlines that terminate statements.
func normalizeNewlines(toks []Token) []Token {
	out := make([]Token, 0, len(toks))
	depth := 0
	for _, t := range toks {
		switch t.Kind {
		case TokenLParen, TokenLBracket:
			depth++
		case TokenRParen, TokenRBracket:
			if depth > 0 {
				depth--
			}
		}
		if t.Kind == TokenNewline {
			if depth > 0 {
				continue
			}
			if len(out) > 0 {
				last := out[len(out)-1]
				if last.Kind == TokenOperator || last.Kind == TokenComma || last.Kind == TokenLBrace {
					continue
				}
			}
		}
		out = append(out, t)
	}
	return out
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().Kind == TokenEOF }

func (p *parser) skipSeparators() {
	for p.peek().Kind == TokenNewline || p.peek().Kind == TokenSemicolon {
		p.next()
	}
}

func (p *parser) skipNewlines() {
	for p.peek().Kind == TokenNewline {
		p.next()
	}
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("lang: line %d: %s", t.Line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.peek()
	if t.Kind != kind || (text != "" && t.Text != text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return t, p.errorf("expected %q, found %s", want, t)
	}
	return p.next(), nil
}

// parseFunctionDef parses: name = function(params) return (rets) { body }
func (p *parser) parseFunctionDef() (*FunctionDef, error) {
	nameTok, err := p.expect(TokenIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenOperator, "="); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenKeyword, "function"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenLParen, ""); err != nil {
		return nil, err
	}
	params, err := p.parseParamList(TokenRParen)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenRParen, ""); err != nil {
		return nil, err
	}
	p.skipNewlines()
	var returns []Param
	if p.peek().Kind == TokenKeyword && p.peek().Text == "return" {
		p.next()
		if _, err := p.expect(TokenLParen, ""); err != nil {
			return nil, err
		}
		returns, err = p.parseParamList(TokenRParen)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen, ""); err != nil {
			return nil, err
		}
	}
	p.skipNewlines()
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FunctionDef{Name: nameTok.Text, Params: params, Returns: returns, Body: body}, nil
}

// parseParamList parses typed parameter declarations until the closing token.
func (p *parser) parseParamList(closing TokenKind) ([]Param, error) {
	var params []Param
	p.skipNewlines()
	for p.peek().Kind != closing && !p.atEOF() {
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		params = append(params, param)
		p.skipNewlines()
		if p.peek().Kind == TokenComma {
			p.next()
			p.skipNewlines()
		}
	}
	return params, nil
}

// parseParam parses "Matrix[Double] X", "Double reg = 0.001", "Integer k" or
// a bare name.
func (p *parser) parseParam() (Param, error) {
	param := Param{DataType: types.UnknownData, ValueType: types.Unknown}
	first, err := p.expect(TokenIdent, "")
	if err != nil {
		return param, err
	}
	name := first.Text
	// typed declaration?
	if dt, ok := parseDataTypeName(first.Text); ok {
		param.DataType = dt
		if dt == types.Scalar {
			param.ValueType = parseScalarValueType(first.Text)
		}
		// optional [ValueType]
		if p.peek().Kind == TokenLBracket {
			p.next()
			vtTok, err := p.expect(TokenIdent, "")
			if err != nil {
				return param, err
			}
			if vt, err := types.ParseValueType(strings.ToLower(vtTok.Text)); err == nil {
				param.ValueType = vt
			}
			if _, err := p.expect(TokenRBracket, ""); err != nil {
				return param, err
			}
		}
		nameTok, err := p.expect(TokenIdent, "")
		if err != nil {
			return param, err
		}
		name = nameTok.Text
	}
	param.Name = name
	if p.peek().Kind == TokenOperator && p.peek().Text == "=" {
		p.next()
		def, err := p.parseExpr()
		if err != nil {
			return param, err
		}
		param.Default = def
	}
	return param, nil
}

func parseDataTypeName(s string) (types.DataType, bool) {
	switch s {
	case "Matrix", "matrix":
		return types.Matrix, true
	case "Frame", "frame":
		return types.Frame, true
	case "Tensor", "tensor":
		return types.Tensor, true
	case "List", "list":
		return types.List, true
	case "Double", "double", "Integer", "integer", "Int", "Boolean", "boolean", "String", "string", "Scalar", "scalar":
		return types.Scalar, true
	default:
		return types.UnknownData, false
	}
}

func parseScalarValueType(s string) types.ValueType {
	switch s {
	case "Double", "double", "Scalar", "scalar":
		return types.FP64
	case "Integer", "integer", "Int":
		return types.INT64
	case "Boolean", "boolean":
		return types.Boolean
	case "String", "string":
		return types.String
	default:
		return types.FP64
	}
}

// parseBlock parses { statements }.
func (p *parser) parseBlock() ([]Statement, error) {
	if _, err := p.expect(TokenLBrace, ""); err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		p.skipSeparators()
		if p.peek().Kind == TokenRBrace {
			p.next()
			return stmts, nil
		}
		if p.atEOF() {
			return nil, p.errorf("unexpected end of script, expected }")
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
	}
}

// parseStatement parses a single statement.
func (p *parser) parseStatement() (Statement, error) {
	p.skipSeparators()
	t := p.peek()
	switch {
	case t.Kind == TokenKeyword && t.Text == "if":
		return p.parseIf()
	case t.Kind == TokenKeyword && (t.Text == "for" || t.Text == "parfor"):
		return p.parseFor(t.Text == "parfor")
	case t.Kind == TokenKeyword && t.Text == "while":
		return p.parseWhile()
	case t.Kind == TokenLBracket:
		return p.parseMultiAssign()
	case t.Kind == TokenIdent:
		return p.parseAssignOrExpr()
	default:
		// bare expression statement (e.g. print("x"))
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{Value: expr, Line: t.Line}, nil
	}
}

func (p *parser) parseIf() (Statement, error) {
	line := p.peek().Line
	p.next() // if
	if _, err := p.expect(TokenLParen, ""); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenRParen, ""); err != nil {
		return nil, err
	}
	p.skipNewlines()
	thenStmts, err := p.parseBlockOrSingle()
	if err != nil {
		return nil, err
	}
	var elseStmts []Statement
	// look ahead past newlines for else
	save := p.pos
	p.skipSeparators()
	if p.peek().Kind == TokenKeyword && p.peek().Text == "else" {
		p.next()
		p.skipNewlines()
		if p.peek().Kind == TokenKeyword && p.peek().Text == "if" {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			elseStmts = []Statement{nested}
		} else {
			elseStmts, err = p.parseBlockOrSingle()
			if err != nil {
				return nil, err
			}
		}
	} else {
		p.pos = save
	}
	return &IfStmt{Cond: cond, Then: thenStmts, Else: elseStmts, Line: line}, nil
}

func (p *parser) parseBlockOrSingle() ([]Statement, error) {
	if p.peek().Kind == TokenLBrace {
		return p.parseBlock()
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return []Statement{stmt}, nil
}

func (p *parser) parseFor(parallel bool) (Statement, error) {
	line := p.peek().Line
	p.next() // for / parfor
	if _, err := p.expect(TokenLParen, ""); err != nil {
		return nil, err
	}
	varTok, err := p.expect(TokenIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenKeyword, "in"); err != nil {
		return nil, err
	}
	iter, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// optional parfor options like check=0, mode=LOCAL: skip them
	for p.peek().Kind == TokenComma {
		p.next()
		if _, err := p.expect(TokenIdent, ""); err != nil {
			return nil, err
		}
		if p.peek().Kind == TokenOperator && p.peek().Text == "=" {
			p.next()
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(TokenRParen, ""); err != nil {
		return nil, err
	}
	p.skipNewlines()
	body, err := p.parseBlockOrSingle()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Var: varTok.Text, Iterable: iter, Body: body, Parallel: parallel, Line: line}, nil
}

func (p *parser) parseWhile() (Statement, error) {
	line := p.peek().Line
	p.next() // while
	if _, err := p.expect(TokenLParen, ""); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenRParen, ""); err != nil {
		return nil, err
	}
	p.skipNewlines()
	body, err := p.parseBlockOrSingle()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: line}, nil
}

// parseMultiAssign parses [a, b] = call(...)
func (p *parser) parseMultiAssign() (Statement, error) {
	line := p.peek().Line
	p.next() // [
	var targets []AssignTarget
	for {
		p.skipNewlines()
		tok, err := p.expect(TokenIdent, "")
		if err != nil {
			return nil, err
		}
		targets = append(targets, AssignTarget{Name: tok.Text})
		p.skipNewlines()
		if p.peek().Kind == TokenComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokenRBracket, ""); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokenOperator, "="); err != nil {
		return nil, err
	}
	value, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Targets: targets, Value: value, Line: line}, nil
}

// parseAssignOrExpr handles "x = expr", "X[i, j] = expr" and bare expression
// statements starting with an identifier (like print(...)).
func (p *parser) parseAssignOrExpr() (Statement, error) {
	line := p.peek().Line
	start := p.pos
	nameTok := p.next() // ident
	// indexed assignment target?
	if p.peek().Kind == TokenLBracket {
		// attempt to parse an index target followed by '='
		rows, cols, err := p.parseIndexRanges()
		if err == nil && p.peek().Kind == TokenOperator && p.peek().Text == "=" {
			p.next()
			value, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{
				Targets: []AssignTarget{{Name: nameTok.Text, Indexed: true, Rows: rows, Cols: cols}},
				Value:   value,
				Line:    line,
			}, nil
		}
		// not an indexed assignment: rewind and parse as expression
		p.pos = start
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{Value: expr, Line: line}, nil
	}
	if p.peek().Kind == TokenOperator && p.peek().Text == "=" {
		p.next()
		value, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Targets: []AssignTarget{{Name: nameTok.Text}}, Value: value, Line: line}, nil
	}
	// plain expression statement
	p.pos = start
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{Value: expr, Line: line}, nil
}

// parseIndexRanges parses "[rows, cols]" after the target name.
func (p *parser) parseIndexRanges() (*IndexRange, *IndexRange, error) {
	if _, err := p.expect(TokenLBracket, ""); err != nil {
		return nil, nil, err
	}
	rows, err := p.parseIndexRange(TokenComma)
	if err != nil {
		return nil, nil, err
	}
	var cols *IndexRange
	if p.peek().Kind == TokenComma {
		p.next()
		cols, err = p.parseIndexRange(TokenRBracket)
		if err != nil {
			return nil, nil, err
		}
	} else {
		cols = &IndexRange{All: true}
	}
	if _, err := p.expect(TokenRBracket, ""); err != nil {
		return nil, nil, err
	}
	return rows, cols, nil
}

// parseIndexRange parses one dimension of an index expression, stopping at
// the given terminator or the closing bracket.
func (p *parser) parseIndexRange(terminator TokenKind) (*IndexRange, error) {
	if p.peek().Kind == terminator || p.peek().Kind == TokenRBracket || p.peek().Kind == TokenComma {
		return &IndexRange{All: true}, nil
	}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if r, ok := expr.(*RangeExpr); ok {
		return &IndexRange{Lower: r.From, Upper: r.To}, nil
	}
	return &IndexRange{Lower: expr}, nil
}

// Operator precedence levels, lowest first.
var precedenceLevels = [][]string{
	{"|"},
	{"&"},
	{"==", "!=", "<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/"},
	{"%*%", "%%", "%/%"},
}

// parseExpr parses an expression using precedence climbing.
func (p *parser) parseExpr() (Expr, error) {
	return p.parseBinary(0)
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(precedenceLevels) {
		return p.parseRange()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokenOperator || !contains(precedenceLevels[level], t.Text) {
			return left, nil
		}
		op := p.next().Text
		p.skipNewlines()
		right, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right, Line: t.Line}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// parseRange parses from:to ranges (binds tighter than arithmetic per R).
func (p *parser) parseRange() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokenColon {
		line := p.peek().Line
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &RangeExpr{From: left, To: right, Line: line}, nil
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokenOperator && (t.Text == "-" || t.Text == "!" || t.Text == "+") {
		p.next()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Text == "+" {
			return operand, nil
		}
		return &UnaryExpr{Op: t.Text, Operand: operand, Line: t.Line}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	base, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokenOperator && p.peek().Text == "^" {
		line := p.peek().Line
		p.next()
		// right-associative
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "^", Left: base, Right: exp, Line: line}, nil
	}
	return base, nil
}

// parsePostfix parses a primary expression followed by any number of
// indexing suffixes.
func (p *parser) parsePostfix() (Expr, error) {
	expr, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokenLBracket {
		line := p.peek().Line
		rows, cols, err := p.parseIndexRanges()
		if err != nil {
			return nil, err
		}
		expr = &IndexExpr{Target: expr, Rows: rows, Cols: cols, Line: line}
	}
	return expr, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		isInt := !strings.ContainsAny(t.Text, ".eE")
		return &NumLit{Value: v, IsInt: isInt, Line: t.Line}, nil
	case TokenString:
		p.next()
		return &StrLit{Value: t.Text, Line: t.Line}, nil
	case TokenBool:
		p.next()
		return &BoolLit{Value: t.Text == "TRUE" || t.Text == "true", Line: t.Line}, nil
	case TokenIdent:
		p.next()
		if p.peek().Kind == TokenLParen {
			return p.parseCallArgs(t)
		}
		return &Ident{Name: t.Text, Line: t.Line}, nil
	case TokenLParen:
		p.next()
		p.skipNewlines()
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.skipNewlines()
		if _, err := p.expect(TokenRParen, ""); err != nil {
			return nil, err
		}
		return expr, nil
	default:
		return nil, p.errorf("unexpected token %s in expression", t)
	}
}

func (p *parser) parseCallArgs(nameTok Token) (Expr, error) {
	if _, err := p.expect(TokenLParen, ""); err != nil {
		return nil, err
	}
	var args []Arg
	p.skipNewlines()
	for p.peek().Kind != TokenRParen && !p.atEOF() {
		arg := Arg{}
		// named argument: ident = expr (but not ident == expr)
		if p.peek().Kind == TokenIdent && p.peekAt(1).Kind == TokenOperator && p.peekAt(1).Text == "=" {
			arg.Name = p.next().Text
			p.next() // =
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		arg.Value = val
		args = append(args, arg)
		p.skipNewlines()
		if p.peek().Kind == TokenComma {
			p.next()
			p.skipNewlines()
			continue
		}
		break
	}
	if _, err := p.expect(TokenRParen, ""); err != nil {
		return nil, err
	}
	return &CallExpr{Name: nameTok.Text, Args: args, Line: nameTok.Line}, nil
}
