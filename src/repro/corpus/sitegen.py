"""Generators for transformation *sites* planted in the corpus programs.

The paper's RQ2 evaluation (Tables V/VI, Figure 2) batch-applies SLR and
STR to four open-source programs and reports, per unsafe function and per
buffer, how many sites pass the preconditions and why the rest fail.  Our
miniature corpus plants a scaled-faithful population of such sites:

* SLR sites that transform (static or heap destination with a visible
  allocation), and SLR sites that fail for exactly the four reasons
  §IV-B enumerates (no visible heap allocation / aliased struct member /
  array of buffers / ternary allocation);
* STR buffers whose every use matches Table II, and STR buffers passed to
  a user-defined function that writes through the pointer (the single
  failure cause behind Table VI's column C3).

Every site is an executable function; the program's test driver calls all
of them and prints deterministic output, so the "make test" analogue can
compare before/after behaviour.
"""

from __future__ import annotations


class SiteEmitter:
    """Emits site functions and the calls that exercise them."""

    def __init__(self, prefix: str, *, with_singleton_failures: bool = False,
                 with_ternary_failure: bool = False):
        self.prefix = prefix
        self.functions: list[str] = []
        self.calls: list[str] = []
        self._counter = 0
        self._memcpy_ok_flip = 0
        self._memcpy_fail_count = 0
        self._strcpy_fail_count = 0
        # Only one corpus program carries each of the paper's singleton
        # failure causes (aliased struct / array of buffers / ternary).
        self.with_singleton_failures = with_singleton_failures
        self.with_ternary_failure = with_ternary_failure

    def _name(self, kind: str) -> str:
        self._counter += 1
        return f"{self.prefix}_{kind}_{self._counter:03d}"

    # ---------------------------------------------------------- SLR sites

    def slr_ok_strcpy(self) -> None:
        name = self._name("strcpy_ok")
        size = 24 + (self._counter % 5) * 8
        self.functions.append(f"""\
static void {name}(const char *tag)
{{
    char label[{size}];
    strcpy(label, tag);
    printf("{name}:%s\\n", label);
}}""")
        self.calls.append(f'{name}("t{self._counter % 10}");')

    def slr_fail_strcpy_param(self) -> None:
        """Failure reason 1: destination is a parameter (no visible
        allocation)."""
        name = self._name("strcpy_param")
        self.functions.append(f"""\
static void {name}(char *out, const char *tag)
{{
    strcpy(out, tag);
}}""")
        helper = f"{name}_driver"
        self.functions.append(f"""\
static void {helper}(void)
{{
    char room[64];
    {name}(room, "p{self._counter % 10}");
    printf("{name}:%s\\n", room);
}}""")
        self.calls.append(f"{helper}();")

    def slr_fail_strcpy_ternary(self) -> None:
        """Failure reason 4: definition is a ternary of allocations."""
        name = self._name("strcpy_ternary")
        self.functions.append(f"""\
static void {name}(int big)
{{
    char *buf = big ? malloc(128) : malloc(32);
    strcpy(buf, "ternary");
    printf("{name}:%s\\n", buf);
    free(buf);
}}""")
        self.calls.append(f"{name}(1);")

    def slr_ok_strcat(self) -> None:
        name = self._name("strcat_ok")
        size = 32 + (self._counter % 3) * 16
        self.functions.append(f"""\
static void {name}(const char *suffix)
{{
    char path[{size}] = "base";
    strcat(path, suffix);
    printf("{name}:%s\\n", path);
}}""")
        self.calls.append(f'{name}(".ext");')

    def slr_ok_sprintf(self) -> None:
        name = self._name("sprintf_ok")
        size = 40 + (self._counter % 4) * 8
        self.functions.append(f"""\
static void {name}(int value)
{{
    char line[{size}];
    sprintf(line, "v=%d", value);
    printf("{name}:%s\\n", line);
}}""")
        self.calls.append(f"{name}({self._counter});")

    def slr_fail_sprintf_param(self) -> None:
        name = self._name("sprintf_param")
        self.functions.append(f"""\
static void {name}(char *out, int value)
{{
    sprintf(out, "v=%d", value);
}}""")
        helper = f"{name}_driver"
        self.functions.append(f"""\
static void {helper}(void)
{{
    char room[64];
    {name}(room, {self._counter});
    printf("{name}:%s\\n", room);
}}""")
        self.calls.append(f"{helper}();")

    def slr_ok_vsprintf(self) -> None:
        name = self._name("vsprintf_ok")
        self.functions.append(f"""\
static void {name}(const char *fmt, ...)
{{
    char message[96];
    va_list ap;
    va_start(ap, fmt);
    vsprintf(message, fmt, ap);
    va_end(ap);
    printf("{name}:%s\\n", message);
}}""")
        self.calls.append(f'{name}("%d/%s", {self._counter}, "v");')

    def slr_fail_vsprintf_param(self) -> None:
        name = self._name("vsprintf_param")
        self.functions.append(f"""\
static void {name}(char *out, const char *fmt, ...)
{{
    va_list ap;
    va_start(ap, fmt);
    vsprintf(out, fmt, ap);
    va_end(ap);
}}""")
        helper = f"{name}_driver"
        self.functions.append(f"""\
static void {helper}(void)
{{
    char room[96];
    {name}(room, "x=%d", {self._counter});
    printf("{name}:%s\\n", room);
}}""")
        self.calls.append(f"{helper}();")

    def slr_ok_memcpy_stack(self) -> None:
        name = self._name("memcpy_ok")
        size = 16 + (self._counter % 4) * 8
        self.functions.append(f"""\
static void {name}(const char *chunk, unsigned long n)
{{
    char staging[{size}];
    memcpy(staging, chunk, n);
    staging[n] = '\\0';
    printf("{name}:%s\\n", staging);
}}""")
        self.calls.append(f'{name}("cdata", 5);')

    def slr_ok_memcpy_heap(self) -> None:
        name = self._name("memcpyh_ok")
        self.functions.append(f"""\
static void {name}(const char *chunk)
{{
    unsigned long n = strlen(chunk);
    char *copy = malloc(n + 1);
    memcpy(copy, chunk, n);
    copy[n] = '\\0';
    printf("{name}:%s\\n", copy);
    free(copy);
}}""")
        self.calls.append(f'{name}("hdata{self._counter % 10}");')

    def slr_fail_memcpy_param(self) -> None:
        name = self._name("memcpy_param")
        self.functions.append(f"""\
static void {name}(char *out, const char *chunk, unsigned long n)
{{
    memcpy(out, chunk, n);
    out[n] = '\\0';
}}""")
        helper = f"{name}_driver"
        self.functions.append(f"""\
static void {helper}(void)
{{
    char room[48];
    {name}(room, "block", 5);
    printf("{name}:%s\\n", room);
}}""")
        self.calls.append(f"{helper}();")

    def slr_fail_memcpy_aliased_struct(self) -> None:
        """Failure reason 2: buffer is a member of an aliased struct."""
        name = self._name("memcpy_alias")
        self.functions.append(f"""\
struct {name}_ctx {{
    char *data;
    unsigned long used;
}};

static void {name}(void)
{{
    struct {name}_ctx ctx;
    struct {name}_ctx *view = &ctx;
    ctx.data = malloc(40);
    view->used = 4;
    memcpy(ctx.data, "wxyz", 4);
    ctx.data[4] = '\\0';
    printf("{name}:%s:%lu\\n", ctx.data, view->used);
    free(ctx.data);
}}""")
        self.calls.append(f"{name}();")

    def slr_fail_memcpy_array_of_buffers(self) -> None:
        """Failure reason 3: destination lives in an array of pointers."""
        name = self._name("memcpy_rows")
        self.functions.append(f"""\
static void {name}(void)
{{
    char *rows[4];
    int i;
    for (i = 0; i < 4; i++) {{
        rows[i] = malloc(16);
    }}
    memcpy(rows[2], "rowdata", 7);
    rows[2][7] = '\\0';
    printf("{name}:%s\\n", rows[2]);
    for (i = 0; i < 4; i++) {{
        free(rows[i]);
    }}
}}""")
        self.calls.append(f"{name}();")

    # ---------------------------------------------------------- STR sites

    _STR_OK_SHAPES = 6
    #: candidate buffers each shape contributes
    _SHAPE_BUFFERS = (1, 1, 1, 1, 2, 2)

    def str_ok_buffers(self, buffers: int) -> None:
        """Emit sites contributing exactly ``buffers`` candidate buffers."""
        remaining = buffers
        while remaining > 0:
            shape = self._counter % self._STR_OK_SHAPES
            cost = self._SHAPE_BUFFERS[shape]
            if cost > remaining:
                # Skip to a single-buffer shape by bumping the counter.
                self._counter += 1
                continue
            self.str_ok_buffer()
            remaining -= cost

    def str_ok_buffer(self) -> None:
        """A local buffer whose uses all match Table II patterns."""
        shape = self._counter % self._STR_OK_SHAPES
        name = self._name("buf_ok")
        if shape == 0:
            body = f"""\
    char scratch[24];
    memset(scratch, 'z', 4);
    scratch[4] = seed[0];
    scratch[5] = '\\0';
    printf("{name}:%s:%d\\n", scratch, (int)strlen(scratch));"""
        elif shape == 1:
            body = f"""\
    char *text = "static seed";
    char head;
    head = text[0];
    printf("{name}:%c\\n", head);"""
        elif shape == 2:
            body = f"""\
    char *work = malloc(32);
    work[0] = 'w';
    work[1] = seed[0];
    work[2] = '\\0';
    printf("{name}:%s\\n", work);"""
        elif shape == 3:
            body = f"""\
    char window[16];
    int i;
    for (i = 0; i < 8; i++) {{
        window[i] = (char)('a' + i);
    }}
    window[8] = '\\0';
    printf("{name}:%s\\n", window);"""
        elif shape == 4:
            body = f"""\
    char track[20];
    char *cursor;
    memset(track, 'm', 10);
    track[10] = '\\0';
    cursor = track;
    cursor++;
    printf("{name}:%c%c\\n", *cursor, cursor[1]);"""
        else:
            body = f"""\
    char left[12], right[12];
    left[0] = seed[0];
    left[1] = '\\0';
    right[0] = 'r';
    right[1] = '\\0';
    right[0] = left[0];
    printf("{name}:%s=%s\\n", left, right);"""
        self.functions.append(f"""\
static void {name}(const char *seed)
{{
{body}
}}""")
        self.calls.append(f'{name}("s{self._counter % 7}");')

    def str_fail_buffer(self) -> None:
        """A buffer handed to a user-defined function that writes it."""
        name = self._name("buf_esc")
        writer = f"{name}_fill"
        self.functions.append(f"""\
static void {writer}(char *sink, char mark)
{{
    sink[0] = mark;
    sink[1] = '\\0';
}}""")
        self.functions.append(f"""\
static void {name}(void)
{{
    char exposed[16];
    {writer}(exposed, 'e');
    printf("{name}:%s\\n", exposed);
}}""")
        self.calls.append(f"{name}();")

    # ------------------------------------------------------------- output

    def emit(self, plan_counts: dict[str, tuple[int, int]],
             str_ok: int, str_fail: int) -> None:
        """Emit sites per the plan.

        ``plan_counts`` maps unsafe function name to (transformable,
        failing) counts; failing sites rotate through the paper's failure
        reasons where several apply.
        """
        ok_emitters = {
            "strcpy": self.slr_ok_strcpy,
            "strcat": self.slr_ok_strcat,
            "sprintf": self.slr_ok_sprintf,
            "vsprintf": self.slr_ok_vsprintf,
            "memcpy": self._ok_memcpy_rotating,
        }
        fail_emitters = {
            "strcpy": self._fail_strcpy_rotating,
            "strcat": self.slr_fail_strcpy_param,
            "sprintf": self.slr_fail_sprintf_param,
            "vsprintf": self.slr_fail_vsprintf_param,
            "memcpy": self._fail_memcpy_rotating,
        }
        for fn, (ok, bad) in plan_counts.items():
            for _ in range(ok):
                ok_emitters[fn]()
            for _ in range(bad):
                fail_emitters[fn]()
        for _ in range(str_ok):
            self.str_ok_buffer()
        for _ in range(str_fail):
            self.str_fail_buffer()

    def _ok_memcpy_rotating(self) -> None:
        self._memcpy_ok_flip += 1
        if self._memcpy_ok_flip % 2:
            self.slr_ok_memcpy_stack()
        else:
            self.slr_ok_memcpy_heap()

    def _fail_memcpy_rotating(self) -> None:
        self._memcpy_fail_count += 1
        # The paper saw the aliased-struct and array-of-buffers causes
        # exactly once each; everything else was the missing-allocation
        # cause.
        if self.with_singleton_failures and self._memcpy_fail_count == 2:
            self.slr_fail_memcpy_aliased_struct()
        elif self.with_singleton_failures and self._memcpy_fail_count == 3:
            self.slr_fail_memcpy_array_of_buffers()
        else:
            self.slr_fail_memcpy_param()

    def _fail_strcpy_rotating(self) -> None:
        self._strcpy_fail_count += 1
        if self.with_ternary_failure and self._strcpy_fail_count == 2:
            self.slr_fail_strcpy_ternary()
        else:
            self.slr_fail_strcpy_param()

    def render_functions(self) -> str:
        return "\n\n".join(self.functions)

    def render_calls(self, indent: str = "    ") -> str:
        return "\n".join(indent + call for call in self.calls)
