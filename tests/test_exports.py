"""The package's public names and its imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gracetree


def test_all_names_resolve_once():
    assert len(gracetree.__all__) == len(set(gracetree.__all__))
    missing = [name for name in gracetree.__all__ if not hasattr(gracetree, name)]
    assert missing == []


def test_no_unused_imports():
    # A name counts as used when the module reads it or lists it in __all__.
    unused = []
    for path in sorted(Path(gracetree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_level_form_is_the_only_parity_branch():
    # The closed form's per-level offset and sign come from
    # labelling.level_form alone; another function of the module that takes
    # "% 2" states the formula a second time.
    path = Path(gracetree.__file__).parent / "labelling.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    branches = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name != "level_form"
        for node in ast.walk(function)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    ]
    assert branches == []


def test_level_form_is_the_only_reader_of_subtree_sizes():
    # The closed form's weights come from labelling.level_form alone;
    # another read of level_sizes in the module slices them a second time.
    path = Path(gracetree.__file__).parent / "labelling.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def reads(root):
        return [
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Attribute) and node.attr == "level_sizes"
        ]

    (level_form,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "level_form"
    ]
    assert reads(tree) == reads(level_form) != []


def test_verification_reads_no_degrees_or_sizes():
    # The verifier knows nothing of the closed form: what it may claim of a
    # shape's degrees or subtree sizes belongs to the closed form's callers.
    path = Path(gracetree.__file__).parent / "verification.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("degrees", "level_sizes")
    ]
    assert reads == []


def test_decode_is_the_only_loop_of_inverse():
    # invert_label and trace_inversion share _decode's one loop; a second
    # loop in the module would be a copy of the decoder for one of them.
    path = Path(gracetree.__file__).parent / "inverse.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    looping = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, (ast.For, ast.While))
    }
    assert looping == {"_decode"}


def test_only_main_prints_errors():
    # Commands raise; cli.main alone turns an error into a stderr line and
    # an exit status.
    path = Path(gracetree.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    printers = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name != "main"
        for node in ast.walk(function)
        if isinstance(node, ast.keyword)
        and node.arg == "file"
        and ast.unparse(node.value) == "sys.stderr"
    ]
    assert printers == []


def test_no_unread_top_level_names():
    # A top-level def, class or assignment counts as read when some module
    # of the package loads it, imports it or lists it in __all__; dunder
    # names such as __version__ are exempt.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(gracetree.__file__).parent.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                read.update(ast.literal_eval(node.value))
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{name}:{node.lineno} {defined_name}"
                for defined_name in defined
                if defined_name not in read
                and not (defined_name.startswith("__") and defined_name.endswith("__"))
            ]
    assert unread == []


# Run by CI on every Python version too.  -S keeps site's .pth files, which
# may import anything, out of the fresh interpreter.
LEAN_IMPORT = (
    "import sys, gracetree.cli; "
    "loaded = sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)); "
    "sys.exit(f'gracetree.cli imports {loaded}' if loaded else 0)"
)


def test_cli_imports_no_dataclasses_inspect_or_json():
    src = str(Path(gracetree.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_IMPORT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
