"""Recursive-descent parser for the Lime subset.

Grammar highlights that differ from Java:

* value classes and value enums (``public value enum bit { zero, one; … }``),
* operator methods (``public bit ~ this { … }``),
* value array types ``T[[]]`` (lexed as four bracket tokens),
* bit literals ``100b``,
* the map operator ``@`` and reduce operator ``!`` in binary position,
* the task operator (``task m``), the connect operator ``=>``, and
  relocation brackets ``([ … ])``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import LimeSyntaxError, SourcePosition
from repro.lime import ast_nodes as ast
from repro.lime.lexer import lex
from repro.lime.tokens import PRIMITIVE_TYPE_KINDS, Token, TokenKind

# Binary operator precedence (higher binds tighter). Connect and
# assignment are handled separately because of associativity.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_MAP_REDUCE_PRECEDENCE = 11  # '@' and '!' bind tighter than arithmetic

_UNARY_TOKENS = (TokenKind.MINUS, TokenKind.BANG, TokenKind.TILDE)

# Integer literal ranges, as javac checks them: the magnitude one past
# the maximum is legal only as the direct operand of unary minus.
_LITERAL_MAX = {TokenKind.INT_LIT: 2**31 - 1, TokenKind.LONG_LIT: 2**63 - 1}

_TOKEN_OP_TEXT = {
    TokenKind.PIPE_PIPE: "||",
    TokenKind.AMP_AMP: "&&",
    TokenKind.PIPE: "|",
    TokenKind.CARET: "^",
    TokenKind.AMP: "&",
    TokenKind.EQ: "==",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.GT: ">",
    TokenKind.LE: "<=",
    TokenKind.GE: ">=",
    TokenKind.SHL: "<<",
    TokenKind.SHR: ">>",
    TokenKind.PLUS: "+",
    TokenKind.MINUS: "-",
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.PERCENT: "%",
}

_MODIFIER_TOKENS = {
    TokenKind.KW_PUBLIC: "public",
    TokenKind.KW_PRIVATE: "private",
    TokenKind.KW_STATIC: "static",
    TokenKind.KW_LOCAL: "local",
    TokenKind.KW_VALUE: "value",
    TokenKind.KW_FINAL: "final",
}

# The furthest any rule looks past the current token (``T[[]]``).
_LOOKAHEAD = 3

_ASSIGN_TOKENS = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
}


class Parser:
    def __init__(self, tokens: "list[Token]"):
        # ``tokens`` ends with EOF, which ``_advance`` never passes; the
        # copies behind it let ``_peek`` index without a bounds check.
        self.tokens = tokens + tokens[-1:] * _LOOKAHEAD
        self.index = 0

    # -- token helpers ----------------------------------------------------
    # The expression rules below inline these: ``self.tokens[self.index]``
    # for ``_peek()`` and ``self.index += 1`` for ``_advance()`` past a
    # token already known not to be EOF.

    def _peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.index + ahead]

    def _at(self, kind: TokenKind, ahead: int = 0) -> bool:
        return self.tokens[self.index + ahead].kind is kind

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _expect(self, kind: TokenKind, what: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise LimeSyntaxError(
                f"expected {what}, found {token.text or 'end of file'!r}",
                token.position,
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    # -- program / declarations -------------------------------------------

    def parse_program(self) -> ast.Program:
        classes = []
        while not self._at(TokenKind.EOF):
            classes.append(self._parse_class())
        return ast.Program(classes)

    def _parse_modifiers(self) -> "list[str]":
        modifiers: list[str] = []
        while self._peek().kind in _MODIFIER_TOKENS:
            # 'value' is only a modifier when it precedes class/enum or a
            # member declaration; 'value' never starts an expression in
            # our subset so consuming greedily here is safe.
            modifiers.append(_MODIFIER_TOKENS[self._advance().kind])
        return modifiers

    def _parse_class(self) -> ast.ClassDecl:
        position = self._peek().position
        modifiers = self._parse_modifiers()
        if self._accept(TokenKind.KW_ENUM):
            return self._parse_enum_body(modifiers, position)
        self._expect(TokenKind.KW_CLASS, "'class'")
        name = self._expect(TokenKind.IDENT, "class name").text
        self._expect(TokenKind.LBRACE, "'{'")
        fields: list = []
        methods: list = []
        while not self._accept(TokenKind.RBRACE):
            self._parse_member(name, fields, methods)
        return ast.ClassDecl(
            modifiers, name, False, [], fields, methods, position
        )

    def _parse_enum_body(
        self, modifiers: "list[str]", position: SourcePosition
    ) -> ast.ClassDecl:
        name = self._expect(TokenKind.IDENT, "enum name").text
        self._expect(TokenKind.LBRACE, "'{'")
        constants = [self._expect(TokenKind.IDENT, "enum constant").text]
        while self._accept(TokenKind.COMMA):
            constants.append(
                self._expect(TokenKind.IDENT, "enum constant").text
            )
        fields: list = []
        methods: list = []
        if self._accept(TokenKind.SEMI):
            while not self._at(TokenKind.RBRACE):
                self._parse_member(name, fields, methods)
        self._expect(TokenKind.RBRACE, "'}'")
        return ast.ClassDecl(
            modifiers, name, True, constants, fields, methods, position
        )

    def _parse_member(
        self, class_name: str, fields: list, methods: list
    ) -> None:
        position = self._peek().position
        modifiers = self._parse_modifiers()
        # Constructor: ClassName '(' …
        if (
            self._at(TokenKind.IDENT)
            and self._peek().text == class_name
            and self._at(TokenKind.LPAREN, 1)
        ):
            name = self._advance().text
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(modifiers, None, name, params, body, position)
            )
            return
        type_syntax = self._parse_type()
        # Operator method: 'public bit ~ this { … }' (Figure 1, line 3).
        if self._peek().kind in (
            TokenKind.TILDE,
            TokenKind.BANG,
            TokenKind.MINUS,
        ):
            op = self._advance().text
            self._expect(TokenKind.KW_THIS, "'this'")
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(
                    modifiers,
                    type_syntax,
                    op,
                    [],
                    body,
                    position,
                    is_operator=True,
                )
            )
            return
        name = self._expect(TokenKind.IDENT, "member name").text
        if self._at(TokenKind.LPAREN):
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(
                    modifiers, type_syntax, name, params, body, position
                )
            )
            return
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expression()
        self._expect(TokenKind.SEMI, "';'")
        fields.append(
            ast.FieldDecl(modifiers, type_syntax, name, init, position)
        )

    def _parse_params(self) -> "list[ast.Param]":
        self._expect(TokenKind.LPAREN, "'('")
        params: list[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                position = self._peek().position
                type_syntax = self._parse_type()
                name = self._expect(TokenKind.IDENT, "parameter name").text
                params.append(ast.Param(type_syntax, name, position))
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "')'")
        return params

    # -- types -------------------------------------------------------------

    def _parse_type(self) -> ast.TypeSyntax:
        token = self._peek()
        if token.kind in PRIMITIVE_TYPE_KINDS:
            self._advance()
            name = PRIMITIVE_TYPE_KINDS[token.kind]
        elif token.kind == TokenKind.KW_STRING:
            self._advance()
            name = "String"
        else:
            name = self._expect(TokenKind.IDENT, "type name").text
        dims = self._parse_array_suffixes()
        return ast.TypeSyntax(name, dims, token.position)

    def _parse_array_suffixes(self) -> "list[str]":
        dims: list[str] = []
        while self._at(TokenKind.LBRACKET):
            if self._at(TokenKind.LBRACKET, 1) and self._at(
                TokenKind.RBRACKET, 2
            ):
                # '[[]]' value array suffix.
                self._advance()
                self._advance()
                self._expect(TokenKind.RBRACKET, "']'")
                self._expect(TokenKind.RBRACKET, "']'")
                dims.append("value")
            elif self._at(TokenKind.RBRACKET, 1):
                self._advance()
                self._advance()
                dims.append("mutable")
            else:
                break
        return dims

    # -- statements ---------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        position = self._expect(TokenKind.LBRACE, "'{'").position
        statements = []
        while not self._accept(TokenKind.RBRACE):
            statements.append(self._parse_statement())
        return ast.Block(position, statements)

    def _looks_like_declaration(self) -> bool:
        """Lookahead test: does a statement start with a local variable
        declaration rather than an expression?"""
        kind = self._peek().kind
        if kind == TokenKind.KW_VAR:
            return True
        if kind in PRIMITIVE_TYPE_KINDS or kind == TokenKind.KW_STRING:
            return True
        if kind != TokenKind.IDENT:
            return False
        # IDENT IDENT            -> 'Foo x'
        if self._at(TokenKind.IDENT, 1):
            return True
        # IDENT '[' ']'          -> 'Foo[] x'
        if self._at(TokenKind.LBRACKET, 1) and self._at(TokenKind.RBRACKET, 2):
            return True
        # IDENT '[' '[' ']'      -> 'Foo[[]] x'
        if (
            self._at(TokenKind.LBRACKET, 1)
            and self._at(TokenKind.LBRACKET, 2)
            and self._at(TokenKind.RBRACKET, 3)
        ):
            return True
        return False

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind == TokenKind.LBRACE:
            return self._parse_block()
        if token.kind == TokenKind.SEMI:
            self._advance()
            return ast.Block(token.position, [])
        if token.kind == TokenKind.KW_IF:
            return self._parse_if()
        if token.kind == TokenKind.KW_WHILE:
            return self._parse_while()
        if token.kind == TokenKind.KW_FOR:
            return self._parse_for()
        if token.kind == TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._at(TokenKind.SEMI):
                value = self._parse_expression()
            self._expect(TokenKind.SEMI, "';'")
            return ast.Return(token.position, value)
        if token.kind == TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI, "';'")
            return ast.Break(token.position)
        if token.kind == TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI, "';'")
            return ast.Continue(token.position)
        if self._looks_like_declaration():
            stmt = self._parse_var_decl()
            self._expect(TokenKind.SEMI, "';'")
            return stmt
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "';'")
        return ast.ExprStmt(token.position, expr)

    def _parse_var_decl(self) -> ast.Stmt:
        position = self._peek().position
        if self._accept(TokenKind.KW_VAR):
            type_syntax = None
        else:
            type_syntax = self._parse_type()
        decls = []
        while True:
            name = self._expect(TokenKind.IDENT, "variable name").text
            init = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_expression()
            decls.append(ast.VarDecl(position, type_syntax, name, init))
            if not self._accept(TokenKind.COMMA):
                break
        if len(decls) == 1:
            return decls[0]
        return ast.Block(position, decls)

    def _parse_if(self) -> ast.If:
        position = self._expect(TokenKind.KW_IF, "'if'").position
        self._expect(TokenKind.LPAREN, "'('")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "')'")
        then = self._parse_statement()
        other = None
        if self._accept(TokenKind.KW_ELSE):
            other = self._parse_statement()
        return ast.If(position, cond, then, other)

    def _parse_while(self) -> ast.While:
        position = self._expect(TokenKind.KW_WHILE, "'while'").position
        self._expect(TokenKind.LPAREN, "'('")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "')'")
        body = self._parse_statement()
        return ast.While(position, cond, body)

    def _parse_for(self) -> ast.For:
        position = self._expect(TokenKind.KW_FOR, "'for'").position
        self._expect(TokenKind.LPAREN, "'('")
        init: Optional[ast.Stmt] = None
        if not self._at(TokenKind.SEMI):
            if self._looks_like_declaration():
                init = self._parse_var_decl()
            else:
                init = ast.ExprStmt(
                    self._peek().position, self._parse_expression()
                )
        self._expect(TokenKind.SEMI, "';'")
        cond = None
        if not self._at(TokenKind.SEMI):
            cond = self._parse_expression()
        self._expect(TokenKind.SEMI, "';'")
        update = None
        if not self._at(TokenKind.RPAREN):
            update = self._parse_expression()
        self._expect(TokenKind.RPAREN, "')'")
        body = self._parse_statement()
        return ast.For(position, init, cond, update, body)

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_connect()
        token = self._peek()
        if token.kind in _ASSIGN_TOKENS:
            op = _ASSIGN_TOKENS[self._advance().kind]
            value = self._parse_assignment()  # right-associative
            if not isinstance(
                left, (ast.Name, ast.Index, ast.FieldAccess)
            ):
                raise LimeSyntaxError(
                    "invalid assignment target", token.position
                )
            return ast.Assign(token.position, left, op, value)
        return left

    def _parse_connect(self) -> ast.Expr:
        left = self._parse_ternary()
        while self._at(TokenKind.CONNECT):
            position = self._advance().position
            right = self._parse_ternary()
            left = ast.ConnectExpr(position, left, right)
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._at(TokenKind.QUESTION):
            position = self._advance().position
            then = self._parse_expression()
            self._expect(TokenKind.COLON, "':'")
            other = self._parse_ternary()
            return ast.Ternary(position, cond, then, other)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            # Map / reduce in binary position: 'recv @ m(args)'.
            if token.kind is TokenKind.AT or token.kind is TokenKind.BANG:
                if _MAP_REDUCE_PRECEDENCE < min_precedence:
                    return left
                left = self._parse_map_reduce(left, token)
                continue
            op = _TOKEN_OP_TEXT.get(token.kind)
            if op is None:
                return left
            precedence = _BINARY_PRECEDENCE[op]
            if precedence < min_precedence:
                return left
            self.index += 1
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(token.position, op, left, right)

    def _parse_map_reduce(self, left: ast.Expr, token: Token) -> ast.Expr:
        if not isinstance(left, ast.Name):
            raise LimeSyntaxError(
                "map/reduce receiver must be a class name", token.position
            )
        self._advance()
        method = self._expect(TokenKind.IDENT, "method name").text
        self._expect(TokenKind.LPAREN, "'('")
        args = self._parse_args()
        node_cls = (
            ast.MapExpr if token.kind == TokenKind.AT else ast.ReduceExpr
        )
        return node_cls(token.position, left.ident, method, args)

    def _parse_args(self) -> "list[ast.Expr]":
        args: list[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                args.append(self._parse_expression())
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "')'")
        return args

    def _parse_unary(self) -> ast.Expr:
        tokens = self.tokens
        index = self.index
        token = tokens[index]
        kind = token.kind
        if kind in _UNARY_TOKENS:
            self.index = index + 1
            if kind is TokenKind.MINUS:
                literal = tokens[index + 1]
                maximum = _LITERAL_MAX.get(literal.kind)
                if maximum is not None and literal.value == maximum + 1:
                    # -2147483648 and -9223372036854775808L, as in Java.
                    self.index = index + 2
                    operand = ast.IntLit(
                        literal.position, literal.value,
                        is_long=literal.kind is TokenKind.LONG_LIT,
                    )
                    return ast.Unary(token.position, "-", operand)
            operand = self._parse_unary()
            return ast.Unary(token.position, token.text, operand)
        if kind is TokenKind.PLUS_PLUS or kind is TokenKind.MINUS_MINUS:
            self.index = index + 1
            operand = self._parse_unary()
            return ast.Unary(token.position, token.text + "pre", operand)
        # Cast: '(' primitive-type ')' operand.
        if (
            kind is TokenKind.LPAREN
            and tokens[index + 1].kind in PRIMITIVE_TYPE_KINDS
            and tokens[index + 2].kind is TokenKind.RPAREN
        ):
            type_token = tokens[index + 1]
            self.index = index + 3
            operand = self._parse_unary()
            type_syntax = ast.TypeSyntax(
                PRIMITIVE_TYPE_KINDS[type_token.kind], [], type_token.position
            )
            return ast.Cast(token.position, type_syntax, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.index]
            kind = token.kind
            if kind is TokenKind.DOT:
                self.index += 1
                expr = self._parse_member_suffix(expr)
            elif kind is TokenKind.LBRACKET:
                self.index += 1
                index = self._parse_expression()
                self._expect(TokenKind.RBRACKET, "']'")
                expr = ast.Index(token.position, expr, index)
            elif kind is TokenKind.PLUS_PLUS or kind is TokenKind.MINUS_MINUS:
                self.index += 1
                expr = ast.Unary(token.position, token.text + "post", expr)
            else:
                return expr

    def _parse_member_suffix(self, receiver: ast.Expr) -> ast.Expr:
        position = self._peek().position
        type_args: list[ast.TypeSyntax] = []
        if self._accept(TokenKind.LT):
            # Generic call, e.g. result.<bit>sink().
            type_args.append(self._parse_type())
            while self._accept(TokenKind.COMMA):
                type_args.append(self._parse_type())
            self._expect(TokenKind.GT, "'>'")
        name = self._expect(TokenKind.IDENT, "member name").text
        if self._at(TokenKind.LPAREN):
            self._advance()
            args = self._parse_args()
            return ast.Call(position, receiver, name, args, type_args)
        if type_args:
            raise LimeSyntaxError(
                "type arguments require a method call", position
            )
        return ast.FieldAccess(position, receiver, name)

    def _parse_primary(self) -> ast.Expr:
        tokens = self.tokens
        index = self.index
        token = tokens[index]
        kind = token.kind
        if kind is TokenKind.IDENT:
            if tokens[index + 1].kind is TokenKind.LPAREN:
                self.index = index + 2
                args = self._parse_args()
                return ast.Call(token.position, None, token.text, args)
            self.index = index + 1
            return ast.Name(token.position, token.text)
        if kind is TokenKind.INT_LIT:
            self.index = index + 1
            _check_range(token)
            return ast.IntLit(token.position, token.value)
        if kind is TokenKind.LONG_LIT:
            self.index = index + 1
            _check_range(token)
            return ast.IntLit(token.position, token.value, is_long=True)
        if kind is TokenKind.FLOAT_LIT:
            self.index = index + 1
            return ast.FloatLit(token.position, token.value, is_double=False)
        if kind is TokenKind.DOUBLE_LIT:
            self.index = index + 1
            return ast.FloatLit(token.position, token.value, is_double=True)
        if kind is TokenKind.BIT_LIT:
            self.index = index + 1
            return ast.BitLit(token.position, token.value)
        if kind is TokenKind.STRING_LIT:
            self.index = index + 1
            return ast.StringLit(token.position, token.value)
        if kind is TokenKind.KW_TRUE or kind is TokenKind.KW_FALSE:
            self.index = index + 1
            return ast.BoolLit(token.position, token.value)
        if kind is TokenKind.KW_THIS:
            self.index = index + 1
            return ast.This(token.position)
        if kind is TokenKind.KW_TASK:
            return self._parse_task()
        if kind is TokenKind.KW_NEW:
            return self._parse_new()
        if kind is TokenKind.KW_BIT:
            # 'bit' used as an expression receiver, e.g. bit.zero.
            self.index = index + 1
            return ast.Name(token.position, "bit")
        if kind is TokenKind.LPAREN:
            if tokens[index + 1].kind is TokenKind.LBRACKET:
                # Relocation brackets '([ … ])'.
                self.index = index + 2
                inner = self._parse_expression()
                self._expect(TokenKind.RBRACKET, "']'")
                self._expect(TokenKind.RPAREN, "')'")
                return ast.RelocExpr(token.position, inner)
            self.index = index + 1
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN, "')'")
            return expr
        raise LimeSyntaxError(
            f"unexpected token {token.text or 'end of file'!r}",
            token.position,
        )

    def _parse_task(self) -> ast.TaskExpr:
        position = self._expect(TokenKind.KW_TASK, "'task'").position
        first = self._expect(TokenKind.IDENT, "method name").text
        if self._accept(TokenKind.DOT):
            method = self._expect(TokenKind.IDENT, "method name").text
            return ast.TaskExpr(position, first, method)
        return ast.TaskExpr(position, None, first)

    def _parse_new(self) -> ast.New:
        position = self._expect(TokenKind.KW_NEW, "'new'").position
        token = self._peek()
        if token.kind in PRIMITIVE_TYPE_KINDS:
            self._advance()
            base = PRIMITIVE_TYPE_KINDS[token.kind]
        else:
            base = self._expect(TokenKind.IDENT, "type name").text
        # 'new T[n]' — sized array allocation.
        if self._at(TokenKind.LBRACKET) and not (
            self._at(TokenKind.LBRACKET, 1) or self._at(TokenKind.RBRACKET, 1)
        ):
            self._advance()
            length = self._parse_expression()
            self._expect(TokenKind.RBRACKET, "']'")
            type_syntax = ast.TypeSyntax(base, ["mutable"], token.position)
            return ast.New(position, type_syntax, [], array_length=length)
        dims = self._parse_array_suffixes()
        type_syntax = ast.TypeSyntax(base, dims, token.position)
        self._expect(TokenKind.LPAREN, "'('")
        args = self._parse_args()
        return ast.New(position, type_syntax, args)


def _check_range(token: Token) -> None:
    if token.value > _LITERAL_MAX[token.kind]:
        raise LimeSyntaxError(
            f"integer number too large: {token.text}", token.position
        )


def parse(source: str, filename: str = "<lime>") -> ast.Program:
    """Parse Lime source text into an AST program."""
    program = Parser(lex(source, filename)).parse_program()
    program.source = source
    return program
