#include "deduce/datalog/parser.h"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <vector>

#include "deduce/common/strings.h"

namespace deduce {

namespace {

enum class TokKind {
  kEnd,
  kIdent,      // lowercase identifier
  kVariable,   // Uppercase or _ identifier
  kInt,
  kFloat,
  kString,     // quoted symbol
  kDirective,  // .decl etc.
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kDot,
  kPipe,
  kColonDash,  // :-
  kEq,         // =
  kNe,         // !=
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kBang,       // ! (negation)
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  int64_t int_value = 0;
  double float_value = 0;
  int line = 1;
  int col = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      DEDUCE_RETURN_IF_ERROR(SkipWhitespaceAndComments());
      Token tok;
      tok.line = line_;
      tok.col = col_;
      if (AtEnd()) {
        tok.kind = TokKind::kEnd;
        out.push_back(tok);
        return out;
      }
      char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        DEDUCE_RETURN_IF_ERROR(LexNumber(&tok));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        LexIdent(&tok);
      } else if (c == '"' || c == '\'') {
        DEDUCE_RETURN_IF_ERROR(LexString(&tok));
      } else {
        DEDUCE_RETURN_IF_ERROR(LexPunct(&tok));
      }
      out.push_back(std::move(tok));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("parse error at %d:%d: %s", line_, col_, msg.c_str()));
  }

  Status SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '%') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else if (c == '/' && Peek(1) == '/') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else if (c == '/' && Peek(1) == '*') {
        Advance();
        Advance();
        while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
        if (AtEnd()) return Error("unterminated block comment");
        Advance();
        Advance();
      } else {
        break;
      }
    }
    return Status::OK();
  }

  Status LexNumber(Token* tok) {
    std::string digits;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      digits += Advance();
    }
    bool is_float = false;
    if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      is_float = true;
      digits += Advance();
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        digits += Advance();
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      size_t save = pos_;
      std::string exp;
      exp += Advance();
      if (Peek() == '+' || Peek() == '-') exp += Advance();
      if (std::isdigit(static_cast<unsigned char>(Peek()))) {
        is_float = true;
        while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
          exp += Advance();
        }
        digits += exp;
      } else {
        pos_ = save;  // 'e' belongs to a following identifier
      }
    }
    tok->text = digits;
    if (is_float) {
      tok->kind = TokKind::kFloat;
      tok->float_value = std::strtod(digits.c_str(), nullptr);
    } else {
      tok->kind = TokKind::kInt;
      tok->int_value = std::strtoll(digits.c_str(), nullptr, 10);
    }
    return Status::OK();
  }

  void LexIdent(Token* tok) {
    std::string name;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_')) {
      name += Advance();
    }
    tok->text = name;
    char first = name[0];
    tok->kind = (std::isupper(static_cast<unsigned char>(first)) ||
                 first == '_')
                    ? TokKind::kVariable
                    : TokKind::kIdent;
  }

  Status LexString(Token* tok) {
    char quote = Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      char c = Advance();
      if (c == '\\' && !AtEnd()) {
        char e = Advance();
        switch (e) {
          case 'n':
            value += '\n';
            break;
          case 't':
            value += '\t';
            break;
          default:
            value += e;
        }
      } else {
        value += c;
      }
    }
    if (AtEnd()) return Error("unterminated string");
    Advance();  // closing quote
    tok->kind = TokKind::kString;
    tok->text = value;
    return Status::OK();
  }

  Status LexPunct(Token* tok) {
    char c = Advance();
    switch (c) {
      case '(':
        tok->kind = TokKind::kLParen;
        return Status::OK();
      case ')':
        tok->kind = TokKind::kRParen;
        return Status::OK();
      case '[':
        tok->kind = TokKind::kLBracket;
        return Status::OK();
      case ']':
        tok->kind = TokKind::kRBracket;
        return Status::OK();
      case ',':
        tok->kind = TokKind::kComma;
        return Status::OK();
      case '|':
        tok->kind = TokKind::kPipe;
        return Status::OK();
      case '+':
        tok->kind = TokKind::kPlus;
        return Status::OK();
      case '-':
        tok->kind = TokKind::kMinus;
        return Status::OK();
      case '*':
        tok->kind = TokKind::kStar;
        return Status::OK();
      case '/':
        tok->kind = TokKind::kSlash;
        return Status::OK();
      case '=':
        if (Peek() == '=') Advance();  // '==' accepted as '='
        tok->kind = TokKind::kEq;
        return Status::OK();
      case '!':
        if (Peek() == '=') {
          Advance();
          tok->kind = TokKind::kNe;
        } else {
          tok->kind = TokKind::kBang;
        }
        return Status::OK();
      case '<':
        if (Peek() == '=') {
          Advance();
          tok->kind = TokKind::kLe;
        } else if (Peek() == '>') {
          Advance();
          tok->kind = TokKind::kNe;
        } else {
          tok->kind = TokKind::kLt;
        }
        return Status::OK();
      case '>':
        if (Peek() == '=') {
          Advance();
          tok->kind = TokKind::kGe;
        } else {
          tok->kind = TokKind::kGt;
        }
        return Status::OK();
      case ':':
        if (Peek() == '-') {
          Advance();
          tok->kind = TokKind::kColonDash;
          return Status::OK();
        }
        return Error("expected ':-'");
      case '.':
        if (std::isalpha(static_cast<unsigned char>(Peek()))) {
          std::string name = ".";
          while (!AtEnd() &&
                 std::isalnum(static_cast<unsigned char>(Peek()))) {
            name += Advance();
          }
          tok->kind = TokKind::kDirective;
          tok->text = name;
          return Status::OK();
        }
        tok->kind = TokKind::kDot;
        return Status::OK();
      default:
        return Error(StrFormat("unexpected character '%c'", c));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Program> ParseProgram() {
    Program program;
    while (Cur().kind != TokKind::kEnd) {
      if (Cur().kind == TokKind::kDirective) {
        DEDUCE_RETURN_IF_ERROR(ParseDirective(&program));
      } else {
        DEDUCE_ASSIGN_OR_RETURN(Rule rule, ParseOneRule());
        DEDUCE_RETURN_IF_ERROR(program.AddRule(std::move(rule)));
      }
    }
    return program;
  }

  StatusOr<Term> ParseSingleTerm() {
    DEDUCE_ASSIGN_OR_RETURN(Term t, ParseTermExpr());
    DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
    return t;
  }

  StatusOr<Rule> ParseSingleRule() {
    DEDUCE_ASSIGN_OR_RETURN(Rule rule, ParseOneRule());
    DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
    return rule;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Next() const {
    return tokens_[std::min(pos_ + 1, tokens_.size() - 1)];
  }
  Token Take() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(StrFormat("parse error at %d:%d: %s",
                                             Cur().line, Cur().col,
                                             msg.c_str()));
  }

  Status Expect(TokKind kind, const char* what) {
    if (Cur().kind != kind) {
      return Error(StrFormat("expected %s", what));
    }
    Take();
    return Status::OK();
  }

  bool Accept(TokKind kind) {
    if (Cur().kind == kind) {
      Take();
      return true;
    }
    return false;
  }

  // --- terms ---

  StatusOr<Term> ParseTermExpr() { return ParseAdd(); }

  StatusOr<Term> ParseAdd() {
    DEDUCE_ASSIGN_OR_RETURN(Term lhs, ParseMul());
    while (Cur().kind == TokKind::kPlus || Cur().kind == TokKind::kMinus) {
      const char* op = Cur().kind == TokKind::kPlus ? "+" : "-";
      Take();
      DEDUCE_ASSIGN_OR_RETURN(Term rhs, ParseMul());
      lhs = Term::Function(op, {lhs, rhs});
    }
    return lhs;
  }

  StatusOr<Term> ParseMul() {
    DEDUCE_ASSIGN_OR_RETURN(Term lhs, ParsePrimary());
    while (Cur().kind == TokKind::kStar || Cur().kind == TokKind::kSlash) {
      const char* op = Cur().kind == TokKind::kStar ? "*" : "/";
      Take();
      DEDUCE_ASSIGN_OR_RETURN(Term rhs, ParsePrimary());
      lhs = Term::Function(op, {lhs, rhs});
    }
    return lhs;
  }

  StatusOr<Term> ParsePrimary() {
    switch (Cur().kind) {
      case TokKind::kInt: {
        Token t = Take();
        return Term::Int(t.int_value);
      }
      case TokKind::kFloat: {
        Token t = Take();
        return Term::Real(t.float_value);
      }
      case TokKind::kMinus: {
        Take();
        if (Cur().kind == TokKind::kInt) {
          Token t = Take();
          return Term::Int(-t.int_value);
        }
        if (Cur().kind == TokKind::kFloat) {
          Token t = Take();
          return Term::Real(-t.float_value);
        }
        DEDUCE_ASSIGN_OR_RETURN(Term inner, ParsePrimary());
        return Term::Function("-", {Term::Int(0), inner});
      }
      case TokKind::kString: {
        Token t = Take();
        return Term::Sym(t.text);
      }
      case TokKind::kVariable: {
        Token t = Take();
        if (t.text == "_") {
          return Term::Var(StrFormat("_G%d", anon_counter_++));
        }
        return Term::Var(t.text);
      }
      case TokKind::kIdent: {
        Token t = Take();
        if (Accept(TokKind::kLParen)) {
          std::vector<Term> args;
          if (Cur().kind != TokKind::kRParen) {
            while (true) {
              DEDUCE_ASSIGN_OR_RETURN(Term a, ParseTermExpr());
              args.push_back(std::move(a));
              if (!Accept(TokKind::kComma)) break;
            }
          }
          DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
          return Term::Function(t.text, std::move(args));
        }
        return Term::Sym(t.text);
      }
      case TokKind::kLBracket:
        return ParseList();
      case TokKind::kLParen: {
        Take();
        DEDUCE_ASSIGN_OR_RETURN(Term inner, ParseTermExpr());
        DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
        return inner;
      }
      default:
        return StatusOr<Term>(Error("expected a term"));
    }
  }

  StatusOr<Term> ParseList() {
    DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kLBracket, "'['"));
    std::vector<Term> elements;
    std::optional<Term> tail;
    if (Cur().kind != TokKind::kRBracket) {
      while (true) {
        DEDUCE_ASSIGN_OR_RETURN(Term e, ParseTermExpr());
        elements.push_back(std::move(e));
        if (Accept(TokKind::kComma)) continue;
        if (Accept(TokKind::kPipe)) {
          DEDUCE_ASSIGN_OR_RETURN(Term t, ParseTermExpr());
          tail = t;
        }
        break;
      }
    }
    DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
    return Term::MakeList(elements, tail);
  }

  // --- literals & rules ---

  StatusOr<Atom> TermToAtom(const Term& t) {
    if (t.is_function()) {
      return Atom(t.functor(), t.args());
    }
    if (t.is_constant() && t.value().is_symbol()) {
      return Atom(t.value().symbol(), {});
    }
    return StatusOr<Atom>(Error("expected a predicate atom, got term '" +
                                t.ToString() + "'"));
  }

  std::optional<CmpOp> CurCmpOp() const {
    switch (Cur().kind) {
      case TokKind::kEq:
        return CmpOp::kEq;
      case TokKind::kNe:
        return CmpOp::kNe;
      case TokKind::kLt:
        return CmpOp::kLt;
      case TokKind::kLe:
        return CmpOp::kLe;
      case TokKind::kGt:
        return CmpOp::kGt;
      case TokKind::kGe:
        return CmpOp::kGe;
      default:
        return std::nullopt;
    }
  }

  StatusOr<Literal> ParseLiteral() {
    bool negated = false;
    if (Cur().kind == TokKind::kBang) {
      Take();
      negated = true;
    } else if (Cur().kind == TokKind::kIdent &&
               (Cur().text == "not" || Cur().text == "NOT")) {
      // 'not' only counts as negation when followed by something that can
      // start a literal (otherwise it is a symbol).
      if (Next().kind == TokKind::kIdent || Next().kind == TokKind::kBang) {
        Take();
        negated = true;
      }
    } else if (Cur().kind == TokKind::kVariable && Cur().text == "NOT") {
      Take();
      negated = true;
    }

    DEDUCE_ASSIGN_OR_RETURN(Term first, ParseTermExpr());
    std::optional<CmpOp> cmp = CurCmpOp();
    if (cmp.has_value()) {
      if (negated) return StatusOr<Literal>(Error("cannot negate comparison"));
      Take();
      DEDUCE_ASSIGN_OR_RETURN(Term rhs, ParseTermExpr());
      return Literal::Comparison(*cmp, first, rhs);
    }
    DEDUCE_ASSIGN_OR_RETURN(Atom atom, TermToAtom(first));
    return negated ? Literal::Negated(std::move(atom))
                   : Literal::Positive(std::move(atom));
  }

  StatusOr<Rule> ParseOneRule() {
    DEDUCE_ASSIGN_OR_RETURN(Term head_term, ParseTermExpr());
    DEDUCE_ASSIGN_OR_RETURN(Atom head, TermToAtom(head_term));
    Rule rule;
    rule.head = std::move(head);
    if (Accept(TokKind::kColonDash)) {
      while (true) {
        DEDUCE_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        rule.body.push_back(std::move(lit));
        if (!Accept(TokKind::kComma)) break;
      }
    }
    DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' at end of rule"));
    return rule;
  }

  // --- declarations ---

  Status ParseDirective(Program* program) {
    Token dir = Take();
    if (dir.text != ".decl") {
      return Error("unknown directive '" + dir.text + "'");
    }
    if (Cur().kind != TokKind::kIdent) {
      return Error("expected predicate name after .decl");
    }
    PredicateDecl decl;
    Token name = Take();
    decl.name = Intern(name.text);
    std::vector<std::string> attr_names;
    if (Accept(TokKind::kSlash)) {
      if (Cur().kind != TokKind::kInt) return Error("expected arity");
      decl.arity = static_cast<size_t>(Take().int_value);
    } else {
      DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'(' or '/arity'"));
      if (Cur().kind != TokKind::kRParen) {
        while (true) {
          if (Cur().kind != TokKind::kIdent &&
              Cur().kind != TokKind::kVariable) {
            return Error("expected attribute name");
          }
          attr_names.push_back(Take().text);
          if (!Accept(TokKind::kComma)) break;
        }
      }
      DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      decl.arity = attr_names.size();
    }

    auto attr_index = [&](const std::string& ref) -> StatusOr<size_t> {
      for (size_t i = 0; i < attr_names.size(); ++i) {
        if (attr_names[i] == ref) return i;
      }
      // Allow a numeric index given as identifier? No: handled by kInt.
      return StatusOr<size_t>(
          Error("unknown attribute '" + ref + "' in .decl " + name.text));
    };
    auto parse_arg_ref = [&]() -> StatusOr<size_t> {
      if (Cur().kind == TokKind::kInt) {
        return static_cast<size_t>(Take().int_value);
      }
      if (Cur().kind == TokKind::kIdent || Cur().kind == TokKind::kVariable) {
        return attr_index(Take().text);
      }
      return StatusOr<size_t>(Error("expected attribute name or index"));
    };

    while (Cur().kind == TokKind::kIdent) {
      std::string prop = Take().text;
      if (prop == "input") {
        decl.extensional = true;
      } else if (prop == "window") {
        if (Cur().kind != TokKind::kInt) return Error("expected window size");
        decl.window = Take().int_value;
      } else if (prop == "home") {
        DEDUCE_ASSIGN_OR_RETURN(size_t idx, parse_arg_ref());
        decl.home_arg = idx;
      } else if (prop == "stage") {
        DEDUCE_ASSIGN_OR_RETURN(size_t idx, parse_arg_ref());
        decl.stage_arg = idx;
      } else if (prop == "storage" || prop == "join") {
        if (Cur().kind != TokKind::kIdent) {
          return Error("expected policy name after '" + prop + "'");
        }
        std::string policy = Take().text;
        if (policy == "spatial") {
          if (Cur().kind != TokKind::kInt) {
            return Error("expected radius after 'spatial'");
          }
          policy += ':';
          policy += Take().text;
        }
        if (prop == "storage") {
          decl.storage_policy = policy;
        } else {
          decl.join_policy = policy;
        }
      } else {
        return Error("unknown .decl property '" + prop + "'");
      }
    }
    DEDUCE_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' at end of .decl"));
    if (decl.home_arg && *decl.home_arg >= decl.arity) {
      return Error("home attribute index out of range in .decl " + name.text);
    }
    if (decl.stage_arg && *decl.stage_arg >= decl.arity) {
      return Error("stage attribute index out of range in .decl " + name.text);
    }
    return program->AddDecl(std::move(decl));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
};

}  // namespace

StatusOr<Program> ParseProgram(std::string_view text) {
  Lexer lexer(text);
  DEDUCE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  Parser parser(std::move(tokens));
  return parser.ParseProgram();
}

StatusOr<Term> ParseTerm(std::string_view text) {
  Lexer lexer(text);
  DEDUCE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  Parser parser(std::move(tokens));
  return parser.ParseSingleTerm();
}

StatusOr<Rule> ParseRule(std::string_view text) {
  Lexer lexer(text);
  DEDUCE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  Parser parser(std::move(tokens));
  StatusOr<Rule> rule = parser.ParseSingleRule();
  if (!rule.ok()) return rule;
  Rule r = std::move(rule).value();
  DEDUCE_RETURN_IF_ERROR(ExtractAggregates(&r));
  return r;
}

}  // namespace deduce
