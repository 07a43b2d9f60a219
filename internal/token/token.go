// Package token defines the lexical tokens of the Teapot language
// (PLDI '96, Appendix A). Keywords are case-insensitive because the paper's
// examples freely mix "Begin"/"begin", "If"/"if", "Suspend"/"suspend".
package token

// Kind identifies a lexical token class.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT  // Cache_ReadOnly, home, GET_RO_REQ
	INT    // 42
	STRING // "Invalid msg %s to Cache_RO"

	// Punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	SEMICOLON // ;
	COLON     // :
	COMMA     // ,
	DOT       // .
	ASSIGN    // :=

	// Operators (the grammar's sym-id binary operators).
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	EQ      // =  (equality in Teapot, Pascal-style)
	NEQ     // <> or !=
	LT      // <
	LE      // <=
	GT      // >
	GE      // >=
	AND     // &&  (also keyword 'and')
	OR      // ||  (also keyword 'or')
	NOT     // !   (also keyword 'not')

	keywordStart
	MODULE
	BEGIN
	END
	TYPE
	CONST
	FUNCTION
	PROCEDURE
	PROTOCOL
	VAR
	STATE
	TRANSIENT
	MESSAGE
	IF
	THEN
	ELSE
	ENDIF
	WHILE
	DO
	SUSPEND
	RESUME
	RETURN
	PRINT
	KWAND // and
	KWOR  // or
	KWNOT // not
	TRUE
	FALSE
	keywordEnd
)

var names = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "IDENT",
	INT:       "INT",
	STRING:    "STRING",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	SEMICOLON: ";",
	COLON:     ":",
	COMMA:     ",",
	DOT:       ".",
	ASSIGN:    ":=",
	PLUS:      "+",
	MINUS:     "-",
	STAR:      "*",
	SLASH:     "/",
	PERCENT:   "%",
	EQ:        "=",
	NEQ:       "<>",
	LT:        "<",
	LE:        "<=",
	GT:        ">",
	GE:        ">=",
	AND:       "&&",
	OR:        "||",
	NOT:       "!",
	MODULE:    "module",
	BEGIN:     "begin",
	END:       "end",
	TYPE:      "type",
	CONST:     "const",
	FUNCTION:  "function",
	PROCEDURE: "procedure",
	PROTOCOL:  "protocol",
	VAR:       "var",
	STATE:     "state",
	TRANSIENT: "transient",
	MESSAGE:   "message",
	IF:        "if",
	THEN:      "then",
	ELSE:      "else",
	ENDIF:     "endif",
	WHILE:     "while",
	DO:        "do",
	SUSPEND:   "suspend",
	RESUME:    "resume",
	RETURN:    "return",
	PRINT:     "print",
	KWAND:     "and",
	KWOR:      "or",
	KWNOT:     "not",
	TRUE:      "true",
	FALSE:     "false",
}

// String returns the canonical spelling of the token kind.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return "UNKNOWN"
}

// maxKeywordLen is the length of the longest keywords ("procedure",
// "transient").
const maxKeywordLen = 9

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordStart + 1; k < keywordEnd; k++ {
		m[names[k]] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or IDENT.
// Keyword recognition is case-insensitive. It does not allocate: the
// spelling is lower-cased into a fixed buffer, and one longer than every
// keyword is an identifier without a lookup. Only ASCII letters are folded;
// no other rune lower-cases to a letter of a keyword.
func Lookup(ident string) Kind {
	if len(ident) > maxKeywordLen {
		return IDENT
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	if k, ok := keywords[string(buf[:len(ident)])]; ok {
		return k
	}
	return IDENT
}

// IsKeyword reports whether the kind is a reserved word.
func (k Kind) IsKeyword() bool { return k > keywordStart && k < keywordEnd }

// Precedence returns the binary-operator precedence (higher binds tighter),
// or 0 if the kind is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case OR, KWOR:
		return 1
	case AND, KWAND:
		return 2
	case EQ, NEQ, LT, LE, GT, GE:
		return 3
	case PLUS, MINUS:
		return 4
	case STAR, SLASH, PERCENT:
		return 5
	}
	return 0
}
