type t =
  | Weight_write of {
      macro_count : int;
      bytes : float;
      addr : int;
      tag : string;
    }
  | Load of {
      bytes : float;
      addr : int;
      tag : string;
    }
  | Store of {
      bytes : float;
      addr : int;
      tag : string;
    }
  | Mvm of {
      count : int;
      tiles : int;
      tag : string;
    }
  | Vfu of { ops : int }
  | Send of {
      bytes : float;
      dst : int;
      channel : int;
    }
  | Recv of {
      bytes : float;
      src : int;
      channel : int;
    }
  | Sync of {
      token : int;
      parties : int;
    }
  | Check of {
      ops : int;
      tag : string;
    }

let pp ppf = function
  | Weight_write { macro_count; bytes; addr; tag } ->
    Format.fprintf ppf "wwrite %d macros %.0fB @0x%x (%s)" macro_count bytes addr tag
  | Load { bytes; addr; tag } -> Format.fprintf ppf "load %.0fB @0x%x (%s)" bytes addr tag
  | Store { bytes; addr; tag } ->
    Format.fprintf ppf "store %.0fB @0x%x (%s)" bytes addr tag
  | Mvm { count; tiles; tag } -> Format.fprintf ppf "mvm x%d (%d tiles, %s)" count tiles tag
  | Vfu { ops } -> Format.fprintf ppf "vfu x%d" ops
  | Send { bytes; dst; channel } -> Format.fprintf ppf "send %.0fB -> core%d #%d" bytes dst channel
  | Recv { bytes; src; channel } -> Format.fprintf ppf "recv %.0fB <- core%d #%d" bytes src channel
  | Sync { token; parties } -> Format.fprintf ppf "sync #%d (%d parties)" token parties
  | Check { ops; tag } -> Format.fprintf ppf "check x%d (%s)" ops tag
