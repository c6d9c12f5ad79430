"""libclang front-end: lowers cursors into the analyzer's model.

When the python clang bindings are importable (pip `libclang` or a distro
python3-clang), classes/fields/function boundaries come from the real AST
— exact extents, canonical type spellings, no heuristics. Statement
bodies are then lexed through the shared token machinery (model.lex /
model.split_statements) so the rules see the identical Stmt shape either
way; fixtures assert front-end agreement when both are available. The
same parse types every range-for's range expression, so the unordered-iter
line rule sees real container types instead of declared names.

Kept import-safe on machines without the bindings: `available()` gates
every use, and spr_analyze falls back to the micro-AST engine.
"""

from __future__ import annotations

import os

import model

try:
    import clang.cindex as _cx

    _HAVE = True
except Exception:  # pragma: no cover - environment dependent
    _HAVE = False


def available() -> bool:
    if not _HAVE:
        return False
    try:  # the bindings import even when libclang.so is absent
        _cx.Index.create()
        return True
    except Exception:  # pragma: no cover - environment dependent
        return False


def _extent_tokens(stripped_lines: list[str], start_line: int,
                   start_col: int, end_line: int,
                   end_col: int) -> list[model.Token]:
    """Lexes the [start, end) source extent with real line numbers."""
    window: list[str] = []
    for i in range(1, len(stripped_lines) + 1):
        line = stripped_lines[i - 1]
        if i < start_line or i > end_line:
            window.append("")
            continue
        lo = start_col - 1 if i == start_line else 0
        hi = end_col - 1 if i == end_line else len(line)
        window.append(" " * lo + line[lo:hi])
    return model.lex(window)


def parse_file(path: str, rel: str,
               stripped_lines: list[str]) -> model.FileModel:
    index = _cx.Index.create()
    tu = index.parse(path, args=["-std=c++20", "-Isrc", "-x", "c++"])
    fm = model.FileModel(rel)
    source = os.path.abspath(path)
    _walk(tu.cursor, fm, rel, source, stripped_lines, class_name="")
    fm.unordered_range_fors = _unordered_range_fors(tu, source)
    return fm


def _unordered_range_fors(tu, source: str) -> list[int]:
    """Lines of this file's range-for statements whose range expression has
    an unordered container type."""
    lines = []
    for cursor in tu.cursor.walk_preorder():
        if (cursor.kind != _cx.CursorKind.CXX_FOR_RANGE_STMT
                or not _in_file(cursor, source)):
            continue
        children = list(cursor.get_children())
        if len(children) < 2:
            continue
        range_type = children[-2].type.get_canonical().spelling
        if "unordered_" in range_type:
            lines.append(cursor.location.line)
    return lines


def _in_file(cursor, source: str) -> bool:
    """True when the cursor sits in the analyzed file itself, not in a
    header it includes (which may share its basename)."""
    loc = cursor.location
    return loc.file is not None and os.path.abspath(loc.file.name) == source


def _walk(cursor, fm: model.FileModel, path: str, source: str,
          stripped_lines: list[str], class_name: str) -> None:
    for child in cursor.get_children():
        kind = child.kind
        if kind in (_cx.CursorKind.NAMESPACE,
                    _cx.CursorKind.UNEXPOSED_DECL):
            _walk(child, fm, path, source, stripped_lines, class_name)
            continue
        if not _in_file(child, source):
            continue
        if kind in (_cx.CursorKind.CLASS_DECL, _cx.CursorKind.STRUCT_DECL,
                    _cx.CursorKind.CLASS_TEMPLATE):
            if not child.is_definition():
                continue
            cls = model.ClassInfo(child.spelling, [],
                                  child.location.line, path)
            for member in child.get_children():
                if member.kind == _cx.CursorKind.FIELD_DECL or (
                    member.kind == _cx.CursorKind.VAR_DECL
                ):
                    cls.fields.append(model.Field(
                        member.spelling, member.type.spelling,
                        member.location.line))
            fm.classes.append(cls)
            _walk(child, fm, path, source, stripped_lines, child.spelling)
            continue
        if kind in (_cx.CursorKind.FUNCTION_DECL, _cx.CursorKind.CXX_METHOD,
                    _cx.CursorKind.CONSTRUCTOR, _cx.CursorKind.DESTRUCTOR,
                    _cx.CursorKind.FUNCTION_TEMPLATE):
            if not child.is_definition():
                continue
            body = None
            for sub in child.get_children():
                if sub.kind == _cx.CursorKind.COMPOUND_STMT:
                    body = sub
            if body is None:
                continue
            ext = body.extent
            tokens = _extent_tokens(stripped_lines, ext.start.line,
                                    ext.start.column, ext.end.line,
                                    ext.end.column)
            # Drop the surrounding `{ }` of the compound statement.
            if tokens and tokens[0].text == "{":
                tokens = tokens[1:]
            if tokens and tokens[-1].text == "}":
                tokens = tokens[:-1]
            params = [
                model.Param(arg.spelling, arg.type.spelling)
                for arg in child.get_arguments()
            ]
            owner = class_name
            sem = child.semantic_parent
            if sem is not None and sem.kind in (
                _cx.CursorKind.CLASS_DECL, _cx.CursorKind.STRUCT_DECL,
                _cx.CursorKind.CLASS_TEMPLATE,
            ):
                owner = sem.spelling
            fm.functions.append(model.FunctionInfo(
                name=child.spelling,
                class_name=owner,
                return_type_text=child.result_type.spelling,
                params=params,
                stmts=model.split_statements(tokens),
                body_tokens=tokens,
                line=child.location.line,
                file=path,
            ))
            continue
        if kind == _cx.CursorKind.VAR_DECL and class_name == "":
            fm.globals.append(model.Field(
                child.spelling, child.type.spelling, child.location.line))
